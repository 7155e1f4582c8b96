"""Self-test of the benchmark's output checker.

    python3 perfbench/selftest.py

Run from the root of a boxcolour checkout.  It builds the compose-large
inputs, runs `compose` on grid 40x40 x K5 and `verify` on the same product
coloured without the per-copy shifts, and requires that the checker

  - accepts the composed colouring,
  - rejects the unshifted one with exactly the witness `verify` prints,
  - rejects a colouring with one edge recoloured to clash, a witness that
    is not a cycle, a wrong exact value, unsound bounds and a scan with a
    class missing.

Exits 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time
from pathlib import Path

import check
from check import CheckError
from run import Cli
from workloads import ComposeLarge


def rejects(what: str, fn, *args) -> None:
    try:
        fn(*args)
    except CheckError:
        return
    raise AssertionError(f"checker accepted {what}")


def main() -> int:
    root = Path.cwd()
    if not (root / "src" / "boxcolour" / "cli.py").is_file():
        print("selftest: run from a boxcolour checkout", file=sys.stderr)
        return 2
    work = root / ".perfbench" / f"selftest-{os.getpid()}"
    cli = Cli(root, work, time.perf_counter() + 170)
    try:
        cli.out_dir.mkdir(parents=True)
        (round_ops,) = ComposeLarge().setup(cli, work, seed=0)
        ops = {op.name: op for op in round_ops}
        for name in ("compose-gridxK5", "verify-unshifted"):
            cli.invoke(ops[name].argv, cli.out_dir / f"{name}.out")
        composed = json.loads((cli.out_dir / "compose-gridxK5.out").read_text())
        witness = json.loads((cli.out_dir / "verify-unshifted.out").read_text())
        unshifted = check.Colouring(json.loads((work / "unshifted.json").read_text()))
        n, edges = check.parse_edge_list((work / "gridxK5.el").read_text())

        check.check_colouring(composed, n, edges, 9)
        ops["compose-gridxK5"].check(json.dumps(composed), "")
        rejects("the unshifted colouring", check.check_colouring, unshifted.to_doc(), n, edges, 9)
        a, b, cyc = check.bichromatic_cycle(unshifted)
        mine = {"kind": "bichromatic_cycle", "colours": [check.label_of(a), check.label_of(b)],
                "cycle": list(cyc)}
        if mine != witness:
            raise AssertionError(f"checker's witness {mine} differs from verify's {witness}")
        check.check_witness(witness, unshifted)

        clash = json.loads(json.dumps(composed))
        u, v, _ = clash["edges"][0]
        other = next(e for e in clash["edges"][1:] if u in e[:2] or v in e[:2])
        clash["edges"][0][2] = other[2]
        rejects("an improper colouring", check.check_colouring, clash, n, edges, 9)
        rejects("too many colours", check.check_colouring, composed, n, edges, 8)
        bent = dict(witness, cycle=witness["cycle"][:-2] + witness["cycle"][-1:] + witness["cycle"][-2:-1])
        rejects("a witness out of order", check.check_witness, bent, unshifted)
        rejects("a wrong exact value", check.check_aci,
                json.dumps({"aci": 6, "colouring": {}}), 6, check.complete_edges(6), "K6")
        rejects("unsound bounds", check.check_exhausted,
                json.dumps({"exhausted": True, "lower": 8, "upper": 9}), "K6")
        rejects("a scan missing a class", check.check_scan,
                "n,m,delta,aci,excess,nodes,time_ms\n1,0,0,0,0,0,0.0\n",
                "scanned 1 graphs, max excess over max degree: 0", 2)
    except AssertionError as exc:
        print(f"selftest: FAIL: {exc}")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"selftest: ok (witness {witness['colours']} {witness['cycle']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's workloads: set-up, and one round of CLI invocations.

A workload's `setup` writes its inputs into a work directory and returns
its rounds of ops; a run cycles through them.  Each op knows its expected exit code and how to
check its output with `check`, which shares no code with the program.
The seed relabels input vertices by a seeded permutation: answers stay
the same, the order the program meets vertices and edges does not.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import check
from check import CheckError

# Budget for `aci`, far above what any solve-hard input needs: no op may
# fail, and seeded relabellings make the search effort heavy-tailed (see
# SolveHard).  The time budget stays under run.HARD_LIMIT_S.
ACI_BUDGET = ["--budget-nodes", "5000000", "--budget-secs", "150"]


@dataclass
class Op:
    name: str
    argv: list[str]
    check: Callable[[str, str], None]  # (stdout, stderr); raises CheckError
    expect: int = 0
    truth: str | None = None  # ACI_TABLE key when the op may exhaust its budget


def _write(path: Path, text: str) -> Path:
    path.write_text(text)
    return path


def _gen(cli, work: Path, name: str, argv: list[str], n: int, edges: list) -> Path:
    """Generate an input with the CLI and confirm it is the expected graph."""
    path = work / f"{name}.el"
    cli.setup_call(argv, path)
    got = check.parse_edge_list(path.read_text())
    check.expect_graph(*got, n, edges)
    return path


def _permutation(seed: int, name: str, n: int) -> list[int]:
    perm = list(range(n))
    random.Random(f"{seed}:{name}").shuffle(perm)
    return perm


def _relabel_colouring(doc: dict, perm: list[int]) -> dict:
    rows = sorted([*check.norm(perm[u], perm[v]), c] for u, v, c in doc["edges"])
    return {"n": doc["n"], "palette": doc["palette"], "edges": rows}


class ScanCorpus:
    """`scan --max-n 7`: all 996 connected graphs with up to 7 vertices,
    enumerated and solved exactly.  The only workload where `corpus` works,
    and ~1,000 tiny `check_acyclic` calls show its per-call cost.  The input
    comes from the program itself, so the seed has no effect."""

    def setup(self, cli, work: Path, seed: int) -> list[list[Op]]:
        cli.setup_call(["--help"], work / "help.out")
        return [[Op("scan", ["scan", "--max-n", "7"],
                    lambda out, err: check.check_scan(out, err, 7))]]


class SolveHard:
    """`aci` on 7 small graphs the exact solver must search: Q6, grid 8x8
    and K6 as generated, and K5xP2 and grid 6x6 both as generated and
    relabelled.  The solver dominates.  K6 makes it prove 6 colours
    infeasible before it finds 7.

    Effort depends strongly on the labelling.  Q6 takes 85,584 nodes as
    generated, but most random relabellings of Q6 or grid 8x8 need more
    than 1,000,000, so only K5xP2 and grid 6x6 are relabelled.  Over 3,000
    random relabellings each, the worst needed 133,839 and 74,446 nodes,
    far below ACI_BUDGET.  Each round uses the next of LABELLINGS seeded
    relabellings; a run's median then stands for many labellings rather
    than one lucky or unlucky draw."""

    LABELLINGS = 12
    GRAPHS = {
        "Q6": (["gen", "hypercube", "6"], 64, check.hypercube_edges(6), False),
        "grid8x8": (["gen", "grid", "8", "8"], 64, check.grid_edges(8, 8), False),
        "K5xP2": (None, 10, check.product_edges(5, check.complete_edges(5), 2, [(0, 1)]), True),
        "K6": (["gen", "complete", "6"], 6, check.complete_edges(6), False),
        "grid6x6": (["gen", "grid", "6", "6"], 36, check.grid_edges(6, 6), True),
    }

    def setup(self, cli, work: Path, seed: int) -> list[list[Op]]:
        k5 = _write(work / "K5.el", check.format_edge_list(5, check.complete_edges(5)))
        p2 = _write(work / "P2.el", check.format_edge_list(2, [(0, 1)]))
        generated = {name: _gen(cli, work, name, argv or ["product", "--g", str(k5), "--h", str(p2)],
                                n, edges)
                     for name, (argv, n, edges, _) in self.GRAPHS.items()}
        rounds = []
        for r in range(self.LABELLINGS):
            ops = []
            for name, (_, n, edges, relabelled) in self.GRAPHS.items():
                ops.append(self._op(name, generated[name], n, edges))
                if relabelled:
                    r_edges = check.relabel(edges, _permutation(seed, f"{name}:{r}", n))
                    path = _write(work / f"{name}-r{r}.el", check.format_edge_list(n, r_edges))
                    ops.append(self._op(name, path, n, r_edges, "-r"))
            rounds.append(ops)
        return rounds

    @staticmethod
    def _op(name: str, path: Path, n: int, edges: list, suffix: str = "") -> Op:
        return Op(f"aci-{name}{suffix}", ["aci", str(path), *ACI_BUDGET],
                  lambda out, err: check.check_aci(out, n, edges, name),
                  truth=name)


class ComposeLarge:
    """Five large constructions and verifications: Q11, grid 40x40 x C7,
    grid 40x40 x K5 (factors swapped, so brooks_colouring runs on the
    1,600-vertex grid), `verify` of that product, and `verify` of the same
    product coloured without the per-copy shifts, which must be rejected
    with a two-coloured cycle.  Covers graphs, compose, vertex_colouring,
    io and the verifier on large inputs; the solver does almost nothing."""

    def setup(self, cli, work: Path, seed: int) -> list[list[Op]]:
        grid = check.grid_edges(40, 40)
        _write(work / "P40.el", check.format_edge_list(40, check.path_edges(40)))
        _gen(cli, work, "grid40", ["gen", "grid", "40", "40"], 1600, grid)
        cli.setup_call(["compose", "--g", str(work / "P40.el"), "--h", str(work / "P40.el"),
                        "--solve-factors"], work / "grid40.json")
        factors = {"grid": (1600, grid, json.loads((work / "grid40.json").read_text()))}
        for name, n, edges in (("C7", 7, check.cycle_edges(7)), ("K5", 5, check.complete_edges(5))):
            _write(work / f"{name}-gen.el", check.format_edge_list(n, edges))
            cli.setup_call(["aci", str(work / f"{name}-gen.el")], work / f"{name}-aci.json")
            factors[name] = (n, edges, json.loads((work / f"{name}-aci.json").read_text())["colouring"])

        paths, sizes = {}, {}
        for name, (n, edges, doc) in factors.items():
            check.check_colouring(doc, n, edges, 5)
            perm = _permutation(seed, name, n)
            doc = _relabel_colouring(doc, perm)
            factors[name] = (n, check.relabel(edges, perm), doc)
            sizes[name] = doc["palette"]["g"] + doc["palette"]["h"]
            paths[name] = (_write(work / f"{name}.el", check.format_edge_list(n, factors[name][1])),
                           _write(work / f"{name}.json", json.dumps(doc)))

        n_c7 = 1600 * 7
        e_c7 = check.product_edges(1600, factors["grid"][1], 7, factors["C7"][1])
        n_k5 = 1600 * 5
        e_k5 = check.product_edges(1600, factors["grid"][1], 5, factors["K5"][1])
        unshifted = check.Colouring(_unshifted(factors["grid"][2], factors["K5"][2]))
        unshifted_path = _write(work / "unshifted.json", json.dumps(unshifted.to_doc()))
        k5_graph = _write(work / "gridxK5.el", check.format_edge_list(n_k5, e_k5))
        out = cli.out_dir
        k5_bound = sizes["grid"] + sizes["K5"]

        def factor_args(name):
            (g_el, g_json), (h_el, h_json) = paths["grid"], paths[name]
            return ["compose", "--g", str(g_el), "--h", str(h_el), "--xg", str(g_json), "--xh", str(h_json)]

        def check_k5(stdout, stderr):
            check.check_colouring(check.parse_json(stdout), n_k5, e_k5, k5_bound)
            check.expect_graph(*check.parse_edge_list((out / "gridxK5.el").read_text()), n_k5, e_k5)

        def check_accepted(stdout, stderr):
            x = check.check_colouring(check.parse_json((out / "compose-gridxK5.out").read_text()),
                                      n_k5, e_k5, k5_bound)
            report = re.match(r"ok: (\d+) colours", stdout)
            if not report or int(report[1]) != len(x.used()):
                raise CheckError(f"verify accepted with an unexpected report {stdout[:100]!r}")

        def check_rejected(stdout, stderr):
            check.check_witness(check.parse_json(stdout), unshifted)

        return [[
            Op("hypercube-11", ["hypercube", "11"],
               lambda stdout, stderr: check.check_colouring(
                   check.parse_json(stdout), 2048, check.hypercube_edges(11), 12)),
            Op("compose-gridxC7", factor_args("C7"),
               lambda stdout, stderr: check.check_colouring(
                   check.parse_json(stdout), n_c7, e_c7, sizes["grid"] + sizes["C7"])),
            Op("compose-gridxK5", factor_args("K5") + ["--out-graph", str(out / "gridxK5.el")],
               check_k5),
            Op("verify-gridxK5", ["verify", str(out / "compose-gridxK5.out"),
                                  "--graph", str(out / "gridxK5.el")], check_accepted),
            Op("verify-unshifted", ["verify", str(unshifted_path), "--graph", str(k5_graph)],
               check_rejected, expect=1),
        ]]


def _unshifted(grid_doc: dict, k5_doc: dict) -> dict:
    """grid x K5 coloured as compose would, but with every copy of K5 left
    unrotated: K5 colours unprimed, grid colours primed on the matchings
    between copies.  Proper, yet any K5 edge and the grid edge between two
    of its copies span a two-coloured 4-cycle."""

    def ranks(doc):
        g = doc["palette"]["g"]
        return {(u, v): (idx + g if primed else idx)
                for u, v, c in doc["edges"] for primed, idx in [check.parse_label(c)]}

    grid, k5 = ranks(grid_doc), ranks(k5_doc)
    edges = [[a * 5 + b, c * 5 + b, f"{r}'"] for (a, c), r in grid.items() for b in range(5)]
    edges += [[a * 5 + b, a * 5 + d, str(r)] for (b, d), r in k5.items() for a in range(1600)]
    palette = {"g": k5_doc["palette"]["g"] + k5_doc["palette"]["h"],
               "h": grid_doc["palette"]["g"] + grid_doc["palette"]["h"]}
    return {"n": 1600 * 5, "palette": palette, "edges": edges}


WORKLOADS = {"scan-corpus": ScanCorpus, "solve-hard": SolveHard, "compose-large": ComposeLarge}

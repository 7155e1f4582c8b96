"""End-to-end benchmark of the boxcolour CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a boxcolour checkout.  Each op is one fresh CLI
process, as users run it, in a closed loop with one client: the next op
starts when the previous one has exited.  Every output is checked by
`check`, which shares no code with the program.  The last line of stdout
is one JSON object with `correct`, `attempted`, `failed` and `metrics`:
the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1.  A record of the run (seed, input hashes, Python version, git
SHA, nproc, every op's outcome) is written under .perfbench/runs/.

With --trace 1 the run alternates untraced rounds with rounds in which
every op runs under `tracer.py`, and reports the tracing overhead as the
difference of their median round times.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import check
import layers
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3
STARTUP_REPEATS = 5
BUDGET_EXHAUSTED = 3
# A sample of `_python_speed` taking this much CPU time marks the reference
# speed to which all times are scaled (see README).
REF_SAMPLE_S = 0.00025
SAMPLE_EVERY_S = 0.025
# Every run must end within 180 s; ops still running at this point are killed.
HARD_LIMIT_S = 165.0
CAUSES = ("exhausted", "traceback", "bad_exit", "wrong", "timeout")


def _python_speed() -> float:
    """CPU seconds this thread takes for a fixed mix of dict and int work."""
    t = time.thread_time()
    table: dict[int, int] = {}
    for i in range(1500):
        key = (i * 7919) % 409
        table[key] = table.get(key, 0) + 1
    return time.thread_time() - t


class SpeedSampler:
    """While the block runs, a thread times `_python_speed` every
    SAMPLE_EVERY_S on this process's core, which the CLI children share.

    The core's speed swings within seconds on a shared machine; samples
    taken during an op track it far better than probes taken around it.
    Thread CPU time leaves out the waits for the core that the child causes.
    """

    def __enter__(self) -> "SpeedSampler":
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        return self

    def _run(self) -> None:
        self.samples.append(_python_speed())
        while not self._stop.wait(SAMPLE_EVERY_S):
            self.samples.append(_python_speed())

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def scale(self) -> float:
        """Factor from wall seconds to seconds at the reference speed."""
        return REF_SAMPLE_S / statistics.mean(self.samples)


class SetupError(Exception):
    pass


class Cli:
    """Runs the CLI under test as child processes of this one."""

    def __init__(self, root: Path, work: Path, deadline: float):
        self.out_dir = work / "out"
        self.deadline = deadline
        pythonpath = [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath))

    def invoke(self, argv: list[str], out: Path, spans: Path | None = None) -> dict:
        """One invocation with stdout to `out`; wall time, exit code, peak RSS."""
        if spans is None:
            cmd = [sys.executable, "-m", "boxcolour.cli", *argv]
        else:
            cmd = [sys.executable, str(HERE / "tracer.py"), str(spans), *argv]
        err = out.with_suffix(".err")
        killed = threading.Event()
        with SpeedSampler() as speed, open(out, "wb") as stdout, open(err, "wb") as stderr:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=stdout,
                                    stderr=stderr, env=self.env)
            timer = threading.Timer(max(self.deadline - start, 0.1),
                                    lambda: (killed.set(), proc.kill()))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        scale = speed.scale()
        return {"code": proc.returncode, "wall_s": seconds, "scale": scale,
                "seconds": seconds * scale, "rss_kb": usage.ru_maxrss,
                "timed_out": killed.is_set(), "stderr": err.read_text(errors="replace")}

    def setup_call(self, argv: list[str], out: Path) -> None:
        result = self.invoke(argv, out)
        if result["code"] != 0:
            raise SetupError(f"boxcolour {' '.join(argv)} exited {result['code']}: "
                             f"{result['stderr'][-500:]}")


def classify(op, result: dict, stdout: str) -> tuple[str, str]:
    """The op's outcome: "ok" or the cause of its failure, with a detail."""
    code, stderr = result["code"], result["stderr"]
    if result["timed_out"]:
        return "timeout", "killed at the run's time limit"
    # Decided by stderr too: an uncaught exception exits 1, the code that
    # otherwise means "verification failed".
    if code != 0 and "Traceback (most recent call last)" in stderr:
        return "traceback", stderr.strip().splitlines()[-1][:200]
    try:
        if code == BUDGET_EXHAUSTED and op.truth is not None:
            check.check_exhausted(stdout, op.truth)
            return "exhausted", stdout.strip()[:200]
        if code != op.expect:
            # 0 where 1 is due, or 1 where 0 is, is a wrong verdict.
            cause = "wrong" if {code, op.expect} == {0, 1} else "bad_exit"
            return cause, f"exit {code}, expected {op.expect}"
        op.check(stdout, stderr)
    except check.CheckError as exc:
        return "wrong", str(exc)[:300]
    return "ok", ""


def run_round(cli: Cli, ops: list, traced: bool) -> dict:
    results = []
    for op in ops:
        out = cli.out_dir / f"{op.name}.out"
        spans = cli.out_dir / f"{op.name}.spans.json" if traced else None
        if spans:
            spans.unlink(missing_ok=True)
        result = cli.invoke(op.argv, out, spans)
        stdout = out.read_text(errors="replace")
        result["cause"], result["detail"] = classify(op, result, stdout)
        result["name"], result["out_bytes"] = op.name, len(stdout.encode())
        if spans and spans.exists():
            result["trace"] = json.loads(spans.read_text())
            result["trace"]["scale"] = result["scale"]
        del result["stderr"]
        results.append(result)
        if result["timed_out"]:
            break
    return {"traced": traced, "seconds": sum(r["seconds"] for r in results),
            "wall_s": sum(r["wall_s"] for r in results), "ops": results}


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(setup_times: list[float], rounds: list[dict]) -> dict[str, float]:
    ops = [r for rnd in rounds for r in rnd["ops"]]
    samples = [r["seconds"] for r in ops]
    return {
        "setup_s": statistics.median(setup_times),
        "round_s": statistics.median([rnd["seconds"] for rnd in rounds]),
        "op_s.p50": statistics.median(samples),
        "op_s.p90": p90(samples),
        "peak_rss_mb": max(r["rss_kb"] for r in ops) / 1024,
    }


def per_layer(startup: float, rounds: list[dict]) -> dict[str, float]:
    traced = [rnd for rnd in rounds if rnd["traced"]]
    plain = [rnd for rnd in rounds if not rnd["traced"]]
    per_round = []
    for rnd in traced:
        values = layers.summarize([r["trace"] for r in rnd["ops"] if "trace" in r])
        values["cli.output_bytes"] = sum(r["out_bytes"] for r in rnd["ops"])
        values["trace.accounted_s"] = (len(rnd["ops"]) * startup
                                       + sum(values[f"{layer}.self_s"] for layer in layers.LAYERS))
        per_round.append(values)
    out = {name: statistics.median([v[name] for v in per_round]) for name in per_round[0]}
    out["cli.startup_s"] = startup
    out["trace.round_s"] = statistics.median([rnd["seconds"] for rnd in traced])
    out["trace.untraced_round_s"] = statistics.median([rnd["seconds"] for rnd in plain])
    out["trace.overhead_s"] = out["trace.round_s"] - out["trace.untraced_round_s"]
    out["trace.residual_s"] = out["trace.untraced_round_s"] - out["trace.accounted_s"]
    return out


def unit_of(name: str) -> str:
    if name in layers.UNITS:
        return layers.UNITS[name]
    return "MB" if name == "peak_rss_mb" else "s"


def environment(root: Path, work: Path, args) -> dict:
    sha = None
    if (root / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    src = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        src.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    inputs = {str(p.relative_to(work)): hashlib.sha256(p.read_bytes()).hexdigest()[:16]
              for p in sorted(work.iterdir()) if p.is_file()}
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(), "git_sha": sha,
            "src_sha256": src.hexdigest()[:16], "nproc": os.cpu_count(), "inputs": inputs}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    began = time.perf_counter()
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    root = Path.cwd()
    if not (root / "src" / "boxcolour" / "cli.py").is_file():
        print("perfbench: run from a boxcolour checkout (no src/boxcolour/cli.py here)",
              file=sys.stderr)
        return 2
    work = root / ".perfbench" / f"work-{args.workload}-{os.getpid()}"
    cli = Cli(root, work, began + HARD_LIMIT_S)
    workload = WORKLOADS[args.workload]()
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(work, ignore_errors=True)
            cli.out_dir.mkdir(parents=True)
            with SpeedSampler() as speed:
                start = time.perf_counter()
                schedule = workload.setup(cli, work, args.seed)
                seconds = time.perf_counter() - start
            setup_times.append(seconds * speed.scale())
        record = environment(root, work, args)
        startup = statistics.median([cli.invoke(["--help"], cli.out_dir / "help.out")["seconds"]
                          for _ in range(STARTUP_REPEATS)]) if args.trace else None

        # Rounds (an untraced and a traced one with --trace 1) until the next
        # would not fit in --seconds, judged by the longest so far.
        rounds: list[dict] = []
        measuring = time.perf_counter()
        longest = 0.0
        for i in itertools.count():
            started = time.perf_counter()
            for traced in ((False, True) if args.trace else (False,)):
                rounds.append(run_round(cli, schedule[i % len(schedule)], traced))
            now = time.perf_counter()
            longest = max(longest, now - started)
            if (now + longest - measuring > args.seconds or now + longest > cli.deadline
                    or any(r["timed_out"] for r in rounds[-1]["ops"])):
                break
    except (SetupError, check.CheckError) as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops_run = [r for rnd in rounds for r in rnd["ops"]]
    causes = {c: sum(r["cause"] == c for r in ops_run) for c in CAUSES}
    failed = sum(causes.values())
    metrics = per_layer(startup, rounds) if args.trace else end_to_end(setup_times, rounds)
    record.update(setup_s=setup_times, startup_s=startup, causes=causes, metrics=metrics,
                  rounds=[{"traced": rnd["traced"], "seconds": rnd["seconds"], "wall_s": rnd["wall_s"],
                           "ops": [{k: r[k] for k in ("name", "cause", "detail", "code", "scale",
                                                      "wall_s", "seconds", "rss_kb", "out_bytes")}
                                   for r in rnd["ops"]]} for rnd in rounds])
    runs = root / ".perfbench" / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}.json"
    (runs / name).write_text(json.dumps(record, indent=1) + "\n")

    samples = [r for r in ops_run if "trace" not in r]
    print(f"perfbench {args.workload} seed={args.seed} python={record['python']} "
          f"nproc={record['nproc']} git={record['git_sha']} src={record['src_sha256']}")
    print(f"{len(rounds)} rounds, {len(ops_run)} ops, {len(samples)} untraced samples; "
          f"fail_share {failed / len(ops_run):.3f}: "
          + ", ".join(f"{c} {n}" for c, n in causes.items()))
    for name_cause in dict.fromkeys((r["name"], r["cause"]) for r in ops_run if r["cause"] != "ok"):
        detail = next(r["detail"] for r in ops_run if (r["name"], r["cause"]) == name_cause)
        print(f"  {name_cause[0]}: {name_cause[1]}: {detail}")
    print(f"record: {runs / name}")
    print(json.dumps({
        "correct": causes["wrong"] == 0,
        "attempted": len(ops_run),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

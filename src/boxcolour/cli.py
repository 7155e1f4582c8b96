"""Command-line front end.

Subcommands: gen, product, aci, greedy, compose, hypercube, verify, scan.
Exit codes: 0 success, 1 verification failure (witness printed), 2 usage
or input error, 3 search budget exhausted, 4 internal error (an
unexpected exception, reported on stderr).  A reader that closes the pipe
early (`boxcolour scan --max-n 7 | head`) is an output error: exit 2,
without a traceback.

Any argument of the form @file pulls extra arguments from that file, one
per line, where "key=value" means "--key=value" and '#' starts a comment.
"""

from __future__ import annotations

import argparse
import atexit
import os
import sys

from . import io
from .colouring import EdgeColouring, check_acyclic, colours_used
from .compose import compose_or_solve, hypercube_colouring
from .graphs import cartesian_product, complete, cycle, grid, hypercube, path
from .solver import AciResult, SearchBudget, exact_aci, greedy_acyclic, lower_bound

OK, VERIFY_FAILED, USAGE, BUDGET, INTERNAL = 0, 1, 2, 3, 4


class _Parser(argparse.ArgumentParser):
    def convert_arg_line_to_args(self, line: str) -> list[str]:
        text = line.split("#", 1)[0].strip()
        if not text:
            return []
        if not text.startswith("-") and "=" in text:
            return ["--" + text]
        return [text]


def _budget(args) -> SearchBudget:
    return SearchBudget(max_nodes=args.budget_nodes, max_time=args.budget_secs)


def _add_budget_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--budget-nodes", type=int, default=100_000_000, metavar="N")
    p.add_argument("--budget-secs", type=float, default=60.0, metavar="S")


def _add_format_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=["edgelist", "graph6"], default="edgelist")


def _print_colouring(x: EdgeColouring) -> None:
    sys.stdout.write(io.format_colouring(x))


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_gen(args) -> int:
    makers = {
        "path": (path, 1),
        "cycle": (cycle, 1),
        "complete": (complete, 1),
        "grid": (grid, 2),
        "hypercube": (hypercube, 1),
    }
    maker, arity = makers[args.family]
    if len(args.params) != arity:
        print(f"family {args.family} takes {arity} parameter(s)", file=sys.stderr)
        return USAGE
    g = maker(*args.params)
    sys.stdout.write(io.format_edge_list(g))
    return OK


def _cmd_product(args) -> int:
    g = io.load_graph(args.g, args.format)
    h = io.load_graph(args.h, args.format)
    product, _ = cartesian_product(g, h)
    sys.stdout.write(io.format_edge_list(product))
    return OK


def _report_exhausted(result: AciResult) -> int:
    sys.stdout.write(io.format_exhausted(result.lower, result.upper, result.nodes,
                                         round(result.seconds, 3)))
    print("search budget exhausted", file=sys.stderr)
    return BUDGET


def _cmd_aci(args) -> int:
    g = io.load_graph(args.graph, args.format)
    if args.lower_only:
        print(lower_bound(g))
        return OK
    result = exact_aci(g, _budget(args))
    if result.exhausted:
        return _report_exhausted(result)
    sys.stdout.write(io.format_aci(result.aci, result.witness, result.nodes,
                                   round(result.seconds, 3)))
    return OK


def _cmd_greedy(args) -> int:
    g = io.load_graph(args.graph, args.format)
    _print_colouring(greedy_acyclic(g, args.seed))
    return OK


def _cmd_compose(args) -> int:
    g = io.load_graph(args.g, args.format)
    h = io.load_graph(args.h, args.format)
    budget = _budget(args)
    factors = []
    for graph, colouring_path in ((g, args.xg), (h, args.xh)):
        if colouring_path is not None:
            x = io.read_colouring(colouring_path)
            if x.graph != graph:
                raise ValueError(f"colouring in {colouring_path} is for a different graph")
        elif not args.solve_factors:
            raise ValueError("factor colourings missing; pass --xg/--xh or --solve-factors")
        else:
            result = exact_aci(graph, budget)
            if result.exhausted:
                return _report_exhausted(result)
            x = result.witness
        factors.append(x)
    x = compose_or_solve(*factors)
    if args.out_graph:
        io.write_edge_list(x.graph, args.out_graph)
    _print_colouring(x)
    return OK


def _cmd_hypercube(args) -> int:
    x = hypercube_colouring(args.d)
    if args.out_graph:
        io.write_edge_list(x.graph, args.out_graph)
    _print_colouring(x)
    return OK


def _cmd_verify(args) -> int:
    x = io.read_colouring(args.colouring)
    if args.graph is not None:
        if not io.graph_file_matches(args.graph, args.format, x.graph):
            print("graph file does not match the colouring's graph", file=sys.stderr)
            return USAGE
    violation = check_acyclic(x)
    if violation is not None:
        sys.stdout.write(io.format_violation(violation))
        return VERIFY_FAILED
    print(f"ok: {colours_used(x)} colours, acyclic")
    return OK


def _cmd_scan(args) -> int:
    # only scan needs these, so the other subcommands start without them
    import csv

    from . import corpus

    if (args.max_n is None) == (args.infile is None):
        print("scan needs exactly one of --max-n or --in", file=sys.stderr)
        return USAGE
    if args.max_n is not None:
        graphs = corpus.connected_graphs_up_to(args.max_n)
    else:
        fmt = args.format
        if fmt == "graph6":
            graphs = io.read_graph6(args.infile)
        else:
            graphs = [io.read_edge_list(args.infile)]
    budget = _budget(args)
    writer = csv.writer(sys.stdout)
    writer.writerow(["n", "m", "delta", "aci", "excess", "nodes", "time_ms"])
    worst = 0
    exhausted = 0
    for g in graphs:
        result = exact_aci(g, budget)
        if result.exhausted:
            print(
                f"budget exhausted on a graph with n={g.n} m={g.m} "
                f"(bounds [{result.lower}, {result.upper}])",
                file=sys.stderr,
            )
            exhausted += 1
            aci = excess = ""
        else:
            aci, excess = result.aci, result.aci - g.max_degree
            worst = max(worst, excess)
        writer.writerow(
            [g.n, g.m, g.max_degree, aci, excess, result.nodes,
             round(result.seconds * 1000, 1)]
        )
    print(f"scanned {len(graphs)} graphs, max excess over max degree: {worst}",
          file=sys.stderr)
    if exhausted:
        print(f"budget exhausted on {exhausted} of {len(graphs)} graphs", file=sys.stderr)
        return BUDGET
    return OK


# ---------------------------------------------------------------------------
# Parser


def _gen_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("family", choices=["path", "cycle", "complete", "grid", "hypercube"])
    p.add_argument("params", type=int, nargs="+")
    p.set_defaults(func=_cmd_gen)


def _product_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--g", required=True, metavar="FILE")
    p.add_argument("--h", required=True, metavar="FILE")
    _add_format_flag(p)
    p.set_defaults(func=_cmd_product)


def _aci_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("graph", metavar="FILE")
    _add_format_flag(p)
    _add_budget_flags(p)
    p.add_argument("--lower-only", action="store_true")
    p.set_defaults(func=_cmd_aci)


def _greedy_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("graph", metavar="FILE")
    _add_format_flag(p)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_greedy)


def _compose_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--g", required=True, metavar="FILE")
    p.add_argument("--h", required=True, metavar="FILE")
    p.add_argument("--xg", metavar="JSON")
    p.add_argument("--xh", metavar="JSON")
    p.add_argument("--solve-factors", action="store_true")
    p.add_argument("--out-graph", metavar="FILE")
    _add_format_flag(p)
    _add_budget_flags(p)
    p.set_defaults(func=_cmd_compose)


def _hypercube_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("d", type=int)
    p.add_argument("--out-graph", metavar="FILE")
    p.set_defaults(func=_cmd_hypercube)


def _verify_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("colouring", metavar="JSON")
    p.add_argument("--graph", metavar="FILE")
    _add_format_flag(p)
    p.set_defaults(func=_cmd_verify)


def _scan_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-n", type=int, metavar="N",
                   help="all connected graphs with up to N vertices")
    p.add_argument("--in", dest="infile", metavar="FILE")
    _add_format_flag(p)
    _add_budget_flags(p)
    p.set_defaults(func=_cmd_scan)


# (name, help, builder of its arguments), in the order help lists them
_COMMANDS = (
    ("gen", "emit a generated graph as an edge list", _gen_args),
    ("product", "cartesian product of two graphs", _product_args),
    ("aci", "exact acyclic chromatic index", _aci_args),
    ("greedy", "first-fit acyclic colouring", _greedy_args),
    ("compose", "colour a product from factor colourings", _compose_args),
    ("hypercube", "colour the d-cube with d+1 colours", _hypercube_args),
    ("verify", "check a colouring JSON file", _verify_args),
    ("scan", "exact solve over a corpus, CSV per graph", _scan_args),
)


def _build_parser(command: str | None = None) -> _Parser:
    """The full parser, or with `command` one holding that subcommand alone."""
    parser = _Parser(prog="boxcolour", fromfile_prefix_chars="@")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, summary, add_arguments in _COMMANDS:
        if command is None or name == command:
            add_arguments(sub.add_parser(name, help=summary))
    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse with the parser of the subcommand `argv` starts with alone,
    whose own errors and help do not depend on its siblings.  Anything else
    (top-level help, an @file first, an unknown command, no arguments) and
    anything that parser leaves over goes to the full parser, so every
    top-level usage message is the full parser's."""
    if argv and any(argv[0] == name for name, _, _ in _COMMANDS):
        args, rest = _build_parser(argv[0]).parse_known_args(argv)
        if not rest:
            return args
    return _build_parser().parse_args(argv)


def run(argv: list[str]) -> int:
    try:
        args = _parse_args(argv)
    except SystemExit as exc:
        return OK if exc.code in (0, None) else USAGE
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except Exception as exc:
        # exit 1 is kept for a printed verification witness, so a bug in a
        # handler gets its own code; the interpreter's own hook prints the
        # traceback without importing the traceback module at start-up
        sys.__excepthook__(type(exc), exc, exc.__traceback__)
        print(f"internal error: {exc!r}", file=sys.stderr)
        return INTERNAL


def _pipe_closed() -> int:
    """A reader closed stdout, and stderr too if `run` could not report
    that.  As the Python docs advise for SIGPIPE, point each stream that
    cannot be flushed at devnull, so the interpreter's final flush of what
    it still buffers does not fail again and turn the exit code into 120."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except OSError:
            os.dup2(devnull, stream.fileno())
    os.close(devnull)
    return USAGE


def _observed() -> bool:
    """A tracer, profiler or coverage tool is attached, and reports from
    the interpreter's own exit.  From Python 3.12 cProfile attaches through
    sys.monitoring, which leaves sys.getprofile() None; its tool ids are
    0 to 5."""
    if sys.gettrace() is not None or sys.getprofile() is not None:
        return True
    monitoring = getattr(sys, "monitoring", None)
    return monitoring is not None and any(
        monitoring.get_tool(tool) is not None for tool in range(6)
    )


def entry() -> None:
    try:
        code = run(sys.argv[1:])
        # buffered output shorter than the buffer meets a closed pipe only here
        sys.stdout.flush()
    except BrokenPipeError:
        code = _pipe_closed()
    if _observed():
        sys.exit(code)
    # The interpreter's teardown (module clean-up, final collections, freeing
    # every object one by one) takes about a tenth of a short run, and the OS
    # reclaims the memory anyway: run the atexit handlers and flush, as the
    # teardown would, then exit at once.
    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except BrokenPipeError:
        code = _pipe_closed()
    os._exit(code)


if __name__ == "__main__":
    entry()

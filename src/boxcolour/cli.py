"""Command-line front end.

Subcommands: gen, product, aci, greedy, compose, hypercube, verify, scan.
Exit codes: 0 success, 1 verification failure (witness printed), 2 usage
or input error, 3 search budget exhausted, 4 internal error (an
unexpected exception, reported on stderr).  Output that cannot be
written, to a pipe its reader closed (`boxcolour scan --max-n 7 | head`),
a full device (`> /dev/full`) or a stdout closed before the start
(`>&-`), is an output error: exit 2, without a traceback.

Any argument of the form @file pulls extra arguments from that file, one
per line, where "key=value" means "--key=value" and '#' starts a comment.

Every subcommand's arguments are listed once, in `_COMMANDS`.  A
well-formed command line (an exact subcommand name, then its positionals
and its exact long options, each once, as `--opt value`, `--opt=value` or
a bare flag, with no value that starts with '-' or '@' and none its type
or choices refuse) is read off that table without importing argparse.
Every other command line (help, an abbreviated option, `--`, an @file, a
repeated option, an error of any kind) is parsed by the full argparse
parser built from the same table, which imports argparse, so every help,
usage and error text is argparse's own.
"""

from __future__ import annotations

import atexit
import os
import sys
from types import SimpleNamespace

from . import io
from .colouring import EdgeColouring, check_acyclic, colours_used
from .compose import compose, hypercube_colouring
from .graphs import cartesian_product, complete, cycle, grid, hypercube, path
from .solver import AciResult, SearchBudget, exact_aci, greedy_acyclic, lower_bound

OK, VERIFY_FAILED, USAGE, BUDGET, INTERNAL = 0, 1, 2, 3, 4


def _budget(args) -> SearchBudget:
    return SearchBudget(max_nodes=args.budget_nodes, max_time=args.budget_secs)


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
    budget = _budget(args)
    factors = []
    # a factor with a colouring is matched against its graph file, as
    # verify does; only a factor to be solved has its graph loaded
    for graph_path, colouring_path in ((args.g, args.xg), (args.h, args.xh)):
        if colouring_path is not None:
            x = io.read_colouring(colouring_path)
            if not io.graph_file_matches(graph_path, args.format, x.graph):
                raise ValueError(f"colouring in {colouring_path} is for a different graph")
        elif not args.solve_factors:
            raise ValueError("factor colourings missing; pass --xg/--xh or --solve-factors")
        else:
            result = exact_aci(io.load_graph(graph_path, args.format), budget)
            if result.exhausted:
                return _report_exhausted(result)
            x = result.witness
        factors.append(x)
    x = compose(*factors)
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
            if not graphs:
                # a header and "scanned 0 graphs" would read as a clean scan
                raise ValueError(f"no graphs in {args.infile}")
        else:
            graphs = [io.read_edge_list(args.infile)]
    budget = _budget(args)
    writer = csv.writer(sys.stdout)
    writer.writerow(["n", "m", "delta", "aci", "excess", "nodes", "time_ms"])
    worst = 0
    exhausted = 0
    for g in graphs:
        result, delta = exact_aci(g, budget), g.max_degree
        if result.exhausted:
            print(
                f"budget exhausted on a graph with n={g.n} m={g.m} "
                f"(bounds [{result.lower}, {result.upper}])",
                file=sys.stderr,
            )
            exhausted += 1
            aci = excess = ""
        else:
            aci, excess = result.aci, result.aci - delta
            worst = max(worst, excess)
        writer.writerow(
            [g.n, g.m, delta, aci, excess, result.nodes,
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

# Each argument is (flags, add_argument keywords).  The keywords used are
# choices, default, dest, metavar, help, required, type, action
# ("store_true" only) and nargs ("+" only, on the last positional of a
# subcommand without options): `_parse_plain` reads no others.
_FORMAT = (("--format",), {"choices": ["edgelist", "graph6"], "default": "edgelist"})
_BUDGET = (
    (("--budget-nodes",), {"type": int, "default": 100_000_000, "metavar": "N"}),
    (("--budget-secs",), {"type": float, "default": 60.0, "metavar": "S"}),
)
_OUT_GRAPH = (("--out-graph",), {"metavar": "FILE"})
_FACTORS = (
    (("--g",), {"required": True, "metavar": "FILE"}),
    (("--h",), {"required": True, "metavar": "FILE"}),
)

# (name, help, handler, arguments), in the order help lists them
_COMMANDS = (
    ("gen", "emit a generated graph as an edge list", _cmd_gen, (
        (("family",), {"choices": ["path", "cycle", "complete", "grid", "hypercube"]}),
        (("params",), {"type": int, "nargs": "+"}),
    )),
    ("product", "cartesian product of two graphs", _cmd_product, (*_FACTORS, _FORMAT)),
    ("aci", "exact acyclic chromatic index", _cmd_aci, (
        (("graph",), {"metavar": "FILE"}),
        _FORMAT,
        *_BUDGET,
        (("--lower-only",), {"action": "store_true"}),
    )),
    ("greedy", "first-fit acyclic colouring", _cmd_greedy, (
        (("graph",), {"metavar": "FILE"}),
        _FORMAT,
        (("--seed",), {"type": int, "default": 0}),
    )),
    ("compose", "colour a product from factor colourings", _cmd_compose, (
        *_FACTORS,
        (("--xg",), {"metavar": "JSON"}),
        (("--xh",), {"metavar": "JSON"}),
        (("--solve-factors",), {"action": "store_true"}),
        _OUT_GRAPH,
        _FORMAT,
        *_BUDGET,
    )),
    ("hypercube", "colour the d-cube with d+1 colours", _cmd_hypercube, (
        (("d",), {"type": int}),
        _OUT_GRAPH,
    )),
    ("verify", "check a colouring JSON file", _cmd_verify, (
        (("colouring",), {"metavar": "JSON"}),
        (("--graph",), {"metavar": "FILE"}),
        _FORMAT,
    )),
    ("scan", "exact solve over a corpus, CSV per graph", _cmd_scan, (
        (("--max-n",), {"type": int, "metavar": "N",
                        "help": "all connected graphs with up to N vertices"}),
        (("--in",), {"dest": "infile", "metavar": "FILE"}),
        _FORMAT,
        *_BUDGET,
    )),
)


def _build_parser():
    """The full argparse parser of `_COMMANDS`, for every command line
    `_parse_plain` declines; only those command lines import argparse."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def convert_arg_line_to_args(self, line: str) -> list[str]:
            text = line.split("#", 1)[0].strip()
            if not text:
                return []
            if not text.startswith("-") and "=" in text:
                return ["--" + text]
            return [text]

    parser = _Parser(prog="boxcolour", fromfile_prefix_chars="@")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, summary, func, arguments in _COMMANDS:
        p = sub.add_parser(name, help=summary)
        for flags, keywords in arguments:
            p.add_argument(*flags, **keywords)
        p.set_defaults(func=func)
    return parser


def _plain_value(text: str, keywords: dict):
    """`text` converted as argparse would; ValueError where argparse might
    read it otherwise (an option, an @file) or would report an error."""
    if text.startswith(("-", "@")):
        raise ValueError(text)
    value = keywords.get("type", str)(text)
    if "choices" in keywords and value not in keywords["choices"]:
        raise ValueError(text)
    return value


def _parse_plain(argv: list[str]) -> SimpleNamespace | None:
    """The namespace the full parser gives a well-formed `argv` (see the
    module docstring), read off `_COMMANDS` without argparse; None for any
    other command line, where argparse's reading could differ or it would
    print help or an error."""
    command = next((c for c in _COMMANDS if argv and argv[0] == c[0]), None)
    if command is None:
        return None
    name, _, func, arguments = command
    values = {"command": name, "func": func}
    options, positionals = {}, []
    for flags, keywords in arguments:
        if not flags[0].startswith("-"):
            positionals.append((flags[0], keywords))
            continue
        dest = keywords.get("dest", flags[0][2:].replace("-", "_"))
        options[flags[0]] = dest, keywords
        flag_default = False if keywords.get("action") == "store_true" else None
        values[dest] = keywords.get("default", flag_default)
    seen, given = set(), []
    tokens = iter(argv[1:])
    try:
        for token in tokens:
            if not token.startswith("-"):
                given.append(token)
                continue
            flag, eq, text = token.partition("=")
            if flag not in options or flag in seen:
                return None
            seen.add(flag)
            dest, keywords = options[flag]
            if keywords.get("action") == "store_true":
                if eq:
                    return None
                values[dest] = True
            else:
                values[dest] = _plain_value(text if eq else next(tokens), keywords)
        if any(keywords.get("required") and flag not in seen
               for flag, (_, keywords) in options.items()):
            return None
        several = bool(positionals) and positionals[-1][1].get("nargs") == "+"
        if len(given) < len(positionals) or (len(given) > len(positionals) and not several):
            return None
        for i, (dest, keywords) in enumerate(positionals):
            if keywords.get("nargs") == "+":
                values[dest] = [_plain_value(text, keywords) for text in given[i:]]
            else:
                values[dest] = _plain_value(given[i], keywords)
    except (StopIteration, TypeError, ValueError):
        return None
    return SimpleNamespace(**values)


def _parse_args(argv: list[str]):
    """The table's reading of a well-formed command line, else the full
    parser's, so every help, usage and error text is argparse's own."""
    args = _parse_plain(argv)
    return args if args is not None else _build_parser().parse_args(argv)


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


def _flushed() -> bool:
    """Whether stdout and stderr, those not closed before the start, flush.
    As the Python docs advise for SIGPIPE, each that cannot is pointed at
    devnull, so the interpreter's final flush of what it still buffers
    does not fail again and turn the exit code into 120."""
    flushed = True
    for stream in filter(None, (sys.stdout, sys.stderr)):
        try:
            stream.flush()
        except OSError:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, stream.fileno())
            os.close(devnull)
            flushed = False
    return flushed


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
        # a stdout closed before the start is None, and takes no output
        code = USAGE if sys.stdout is None else run(sys.argv[1:])
    except OSError:  # output failed where `run` could not report it
        code = USAGE
    # buffered output shorter than the buffer meets a failing sink only here
    code = code if _flushed() else USAGE
    if _observed():
        sys.exit(code)
    # The interpreter's teardown (module clean-up, final collections, freeing
    # every object one by one) takes about a tenth of a short run, and the OS
    # reclaims the memory anyway: run the atexit handlers and flush, as the
    # teardown would, then exit at once.
    atexit._run_exitfuncs()
    os._exit(code if _flushed() else USAGE)


if __name__ == "__main__":
    entry()

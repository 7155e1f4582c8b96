"""Run one boxcolour CLI invocation with a span around each layer call.

    python3 tracer.py SPANS.json ARG...

behaves like ``boxcolour ARG...`` (same stdout, stderr and exit code, an
uncaught exception included) and also writes SPANS.json.  The public
functions of every module are wrapped where their callers look them up:
in the defining module, in every module that imported the name, and on
the class for methods.  So spans nest (compose -> cartesian_product ->
Graph), and a layer's self time is its spans' time minus their children's.
Spans stay in memory and are written once, after the CLI returns.

Each span is ``[name, start, end, parent, attrs]`` with times from
``time.perf_counter`` (CLOCK_MONOTONIC, comparable across processes) and
``parent`` the index of the enclosing span, -1 at the root.
"""

from __future__ import annotations

import json
import os
import sys
import time

import boxcolour
import boxcolour.cli
import boxcolour.corpus
import boxcolour.io


def _file_bytes(args, result):
    return {"bytes": os.path.getsize(args[0])}


def _exact(args, result):
    k = result.aci if result.aci is not None else result.lower
    return {"nodes": result.nodes, "k": k}


# (module, attribute, attrs), attrs computing a span's counts from the
# call's arguments and result once the span has ended.
TARGETS = [
    ("cli", "run", None),
    ("io", "parse_edge_list", None),
    ("io", "format_edge_list", None),
    ("io", "read_edge_list", _file_bytes),
    ("io", "write_edge_list", None),
    ("io", "read_colouring", _file_bytes),
    ("io", "load_graph", None),
    ("graphs", "Graph.__init__", None),
    ("graphs", "path", None),
    ("graphs", "cycle", None),
    ("graphs", "complete", None),
    ("graphs", "grid", None),
    ("graphs", "hypercube", None),
    ("graphs", "cartesian_product", lambda a, r: {"edges": r[0].m}),
    ("graphs", "is_connected", None),
    ("graphs", "classify", None),
    ("corpus", "connected_graphs", None),
    ("corpus", "connected_graphs_up_to", lambda a, r: {"graphs": len(r)}),
    ("solver", "exact_aci", _exact),
    ("solver", "greedy_acyclic", None),
    ("solver", "lower_bound", lambda a, r: {"value": r}),
    ("vertex_colouring", "brooks_colouring", None),
    ("vertex_colouring", "brooks_bound", None),
    ("compose", "compose", None),
    ("compose", "compose_or_solve", None),
    ("compose", "compose_many", None),
    ("compose", "hypercube_colouring", None),
    ("colouring", "EdgeColouring.__init__", None),
    ("colouring", "EdgeColouring.to_json_dict", None),
    ("colouring", "EdgeColouring.from_json_dict", None),
    ("colouring", "check_acyclic", lambda a, r: {"edges": a[0].graph.m}),
    ("colouring", "check_proper_vertex", None),
]

spans: list = []
_open: list[int] = []


def _wrap(name, fn, attrs):
    def traced(*args, **kwargs):
        index = len(spans)
        spans.append(None)
        parent = _open[-1] if _open else -1
        _open.append(index)
        done = False
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            done = True
            return result
        finally:
            end = time.perf_counter()
            _open.pop()
            spans[index] = [name, start, end, parent,
                            attrs(args, result) if done and attrs else None]

    return traced


def install() -> None:
    modules = [m for key, m in sys.modules.items()
               if m is not None and (key == "boxcolour" or key.startswith("boxcolour."))]
    for module_name, attr, attrs in TARGETS:
        module = sys.modules[f"boxcolour.{module_name}"]
        name = f"{module_name}.{attr}"
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[method]
            if isinstance(raw, classmethod):
                setattr(cls, method, classmethod(_wrap(name, raw.__func__, attrs)))
            else:
                setattr(cls, method, _wrap(name, raw, attrs))
            continue
        original = getattr(module, attr)
        wrapped = _wrap(name, original, attrs)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapped)


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    install()
    try:
        return boxcolour.cli.run(argv)
    finally:
        sys.stdout.flush()
        with open(out, "w") as f:
            json.dump({"spans": spans}, f)


if __name__ == "__main__":
    sys.exit(main())

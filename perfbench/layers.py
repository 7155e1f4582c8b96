"""Per-layer metrics from the spans of traced CLI invocations.

The layers are boxcolour's modules.  A span's self time is its duration
minus its children's; summed per layer, self times cover all of
``cli.run``, so together with interpreter start-up they account for an
invocation's wall time.  Inclusive ``*_s`` metrics count only the
outermost span of their kind, so recursion (connected_graphs) and nesting
(grid -> path) are not counted twice.
"""

from __future__ import annotations

LAYERS = ("cli", "io", "graphs", "corpus", "solver", "vertex_colouring", "compose", "colouring")

INCLUSIVE = {
    "io.parse_s": {"io.parse_edge_list"},
    "io.read_colouring_s": {"io.read_colouring"},
    "graphs.build_s": {"graphs.Graph.__init__"},
    "graphs.generate_s": {"graphs.path", "graphs.cycle", "graphs.complete", "graphs.grid",
                          "graphs.hypercube"},
    "graphs.product_s": {"graphs.cartesian_product"},
    "corpus.enumerate_s": {"corpus.connected_graphs_up_to", "corpus.connected_graphs"},
    "solver.lower_bound_s": {"solver.lower_bound"},
    "solver.greedy_s": {"solver.greedy_acyclic"},
    "vertex_colouring.brooks_s": {"vertex_colouring.brooks_colouring"},
    "colouring.check_s": {"colouring.check_acyclic"},
    "colouring.to_json_s": {"colouring.EdgeColouring.to_json_dict"},
}
_KIND = {name: metric for metric, names in INCLUSIVE.items() for name in names}

COUNTS = ("corpus.graphs", "solver.nodes", "solver.levels_refuted",
          "graphs.product_edges", "compose.calls", "colouring.check_calls",
          "colouring.check_edges", "io.bytes_in")

# Unit of every per-layer metric: those `summarize` returns, plus start-up
# and output size, which run.py measures itself.
UNITS = {f"{layer}.self_s": "s" for layer in LAYERS}
UNITS.update({metric: "s" for metric in INCLUSIVE})
UNITS.update({metric: "count" for metric in COUNTS})
UNITS.update({"io.bytes_in": "bytes", "solver.exact_s": "s", "solver.nodes_per_s": "1/s",
              "cli.startup_s": "s", "cli.output_bytes": "bytes"})


def summarize(traces: list[dict]) -> dict[str, float]:
    """Per-layer metrics summed over the traced invocations of one round.

    Times are multiplied by each trace's "scale", the factor run.py uses to
    bring its wall times to the reference CPU speed."""
    out = {metric: 0.0 for metric in UNITS if metric not in ("cli.startup_s", "cli.output_bytes")}
    for trace in traces:
        scale = trace["scale"]
        spans = [[name, start * scale, end * scale, parent, attrs]
                 for name, start, end, parent, attrs in trace["spans"]]
        child_time = [0.0] * len(spans)
        start_k: dict[int, int] = {}
        for name, start, end, parent, attrs in spans:
            if parent >= 0:
                child_time[parent] += end - start
            if name == "solver.lower_bound" and attrs:
                start_k.setdefault(parent, max(attrs["value"], 1))
        for i, (name, start, end, parent, attrs) in enumerate(spans):
            own = end - start - child_time[i]
            out[name.split(".", 1)[0] + ".self_s"] += own
            kind = _KIND.get(name)
            if kind is not None and not _inside(spans, parent, kind):
                out[kind] += end - start
            if name == "solver.exact_aci":
                out["solver.exact_s"] += own
            elif name == "compose.compose":
                out["compose.calls"] += 1
            if not attrs:  # no counts, or the call raised
                continue
            if name == "solver.exact_aci":
                out["solver.nodes"] += attrs["nodes"]
                if i in start_k:
                    out["solver.levels_refuted"] += attrs["k"] - start_k[i]
            elif name == "corpus.connected_graphs_up_to":
                out["corpus.graphs"] += attrs["graphs"]
            elif name == "graphs.cartesian_product":
                out["graphs.product_edges"] += attrs["edges"]
            elif name == "colouring.check_acyclic":
                out["colouring.check_calls"] += 1
                out["colouring.check_edges"] += attrs["edges"]
            elif "bytes" in attrs:
                out["io.bytes_in"] += attrs["bytes"]
    out["solver.nodes_per_s"] = out["solver.nodes"] / out["solver.exact_s"] if out["solver.exact_s"] else 0.0
    return out


def _inside(spans: list, parent: int, kind: str) -> bool:
    while parent >= 0:
        if _KIND.get(spans[parent][0]) == kind:
            return True
        parent = spans[parent][3]
    return False

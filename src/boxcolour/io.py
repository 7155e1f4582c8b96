"""File formats: plain edge lists, graph6 (read only), colouring JSON.

Edge list format: first non-comment line is "n m", then m lines "u v"
with 0-based endpoints.  Lines starting with '#' and blank lines are
ignored anywhere.

graph6 is the compact ASCII encoding used by nauty and friends; only
reading is supported, one graph per line.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from .colouring import EdgeColouring, colour_label
from .graphs import Graph

PathLike = Union[str, Path]


# ---------------------------------------------------------------------------
# Edge lists


def parse_edge_list(text: str) -> Graph:
    lines = [
        line.strip()
        for line in text.splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    ]
    if not lines:
        raise ValueError("empty edge list")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"expected header 'n m', got {lines[0]!r}")
    n, m = int(head[0]), int(head[1])
    if len(lines) - 1 != m:
        raise ValueError(f"header announces {m} edges, found {len(lines) - 1}")
    edges = []
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"expected edge line 'u v', got {line!r}")
        edges.append((int(parts[0]), int(parts[1])))
    return Graph(n, edges)


def format_edge_list(g: Graph) -> str:
    out = [f"{g.n} {g.m}"]
    out.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(out) + "\n"


def read_edge_list(path: PathLike) -> Graph:
    return parse_edge_list(Path(path).read_text())


def write_edge_list(g: Graph, path: PathLike) -> None:
    Path(path).write_text(format_edge_list(g))


# ---------------------------------------------------------------------------
# graph6


def parse_graph6(line: str) -> Graph:
    """Decode one graph6 line (optionally prefixed with '>>graph6<<')."""
    s = line.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    if not s:
        raise ValueError("empty graph6 line")
    data = [ord(ch) - 63 for ch in s]
    for val, ch in zip(data, s):
        if val < 0 or val > 63:
            raise ValueError(f"invalid graph6 character {ch!r}")

    # N(n): one byte for n <= 62, '~' + 3 bytes, or '~~' + 6 bytes
    if data[0] <= 62:
        n, body = data[0], data[1:]
    elif len(data) >= 4 and data[1] <= 62:
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        body = data[4:]
    elif len(data) >= 8:
        n = 0
        for b in data[2:8]:
            n = (n << 6) | b
        body = data[8:]
    else:
        raise ValueError("truncated graph6 size field")

    nbits = n * (n - 1) // 2
    if len(body) != (nbits + 5) // 6:
        raise ValueError(f"graph6 body length {len(body)} wrong for n={n}")
    bits = []
    for b in body:
        for shift in range(5, -1, -1):
            bits.append((b >> shift) & 1)
    edges = []
    k = 0
    # upper triangle, column by column: x(0,1), x(0,2), x(1,2), x(0,3), ...
    for v in range(1, n):
        for u in range(v):
            if bits[k]:
                edges.append((u, v))
            k += 1
    return Graph(n, edges)


def read_graph6(path: PathLike) -> list[Graph]:
    graphs = []
    for line in Path(path).read_text().splitlines():
        if line.strip():
            graphs.append(parse_graph6(line))
    return graphs


# ---------------------------------------------------------------------------
# Colouring JSON


def format_colouring(x: EdgeColouring) -> str:
    """`json.dumps(x.to_json_dict(), indent=2)` plus a newline, written
    directly: the indenting encoder is pure Python and slow on large
    colourings."""
    labels = {c: json.dumps(colour_label(c)) for c in set(x.colours)}
    rows = ",\n".join(
        f"    [\n      {u},\n      {v},\n      {labels[c]}\n    ]"
        for (u, v), c in zip(x.graph.edges, x.colours)
    )
    edges = f"[\n{rows}\n  ]" if rows else "[]"
    return (
        f'{{\n  "n": {x.graph.n},\n  "palette": {{\n    "g": {x.palette.g_size},\n'
        f'    "h": {x.palette.h_size}\n  }},\n  "edges": {edges}\n}}\n'
    )


def read_colouring(path: PathLike) -> EdgeColouring:
    return EdgeColouring.from_json_dict(json.loads(Path(path).read_text()))


# ---------------------------------------------------------------------------
# Dispatch


def load_graph(path: PathLike, fmt: str = "edgelist") -> Graph:
    """Read one graph; for graph6 files the file must hold exactly one."""
    if fmt == "edgelist":
        return read_edge_list(path)
    if fmt == "graph6":
        graphs = read_graph6(path)
        if len(graphs) != 1:
            raise ValueError(f"expected one graph in {path}, found {len(graphs)}")
        return graphs[0]
    raise ValueError(f"unknown graph format {fmt!r}")

"""File formats: plain edge lists, graph6 (read only), colouring JSON.

Edge list format: first non-comment line is "n m", then m lines "u v"
with 0-based endpoints, each edge listed once in either orientation.
Lines starting with '#' and blank lines are ignored anywhere, whatever
they hold.  Numbers are ASCII digits with an optional leading '-', as the
writer emits them.  Each line is stripped once; the edges may come in any
order, since `Graph` sorts them (linearly, on the writer's order).
The writer is canonical: it emits one text per graph, the header and then
the sorted, normalised edges, so `graph_file_matches` takes a file holding
exactly that text as the graph without parsing it.

Colouring JSON is decoded by `json` and read by
`EdgeColouring.from_json_dict` in one pass over its rows and one sort, so
its rows, too, may come in any order and orientation.  It is written
without `json`, in `json.dumps(..., indent=2)`'s exact layout, and so are
`aci`'s document and the one line of an exhausted search.  Only a reader
of JSON, and `verify`'s witness, import the encoder's package.

A file that cannot be decoded as text is an input error that names the
file, in every reader.

graph6 is the compact ASCII encoding used by nauty and friends; only
reading is supported, one graph per line.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

from .colouring import EdgeColouring, Violation, colour_label
from .graphs import Graph

PathLike = Union[str, Path]


def _read_text(path: PathLike) -> str:
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ValueError(f"cannot decode {path}: {exc}") from None


# ---------------------------------------------------------------------------
# Edge lists


def _integer(token: str) -> int:
    """The integer a token spells as the writer does, in ASCII digits with
    an optional leading '-'.  "+1", "1_0" and "١", which `int` takes, raise."""
    value = int(token)
    if not (token.isascii() and token.lstrip("-").isdigit()):
        raise ValueError(f"invalid integer {token!r}")
    return value


def _plain_integers(lines: list[str]) -> bool:
    """Whether the lines hold only ASCII digits, spaces and '-': then `int`
    takes each token only in the writer's form."""
    text = "".join(lines)
    return text.isascii() and not text.encode().translate(None, b" -0123456789")


def parse_edge_list(text: str) -> Graph:
    lines = [line for line in map(str.strip, text.splitlines()) if line and line[0] != "#"]
    if not lines:
        raise ValueError("empty edge list")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"expected header 'n m', got {lines[0]!r}")
    n, m = _integer(head[0]), _integer(head[1])
    if len(lines) - 1 != m:
        raise ValueError(f"header announces {m} edges, found {len(lines) - 1}")
    # one bulk check; only when it fails is each token checked as it comes
    to_int = int if _plain_integers(lines) else _integer
    edges = []
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"expected edge line 'u v', got {line!r}")
        edges.append((to_int(parts[0]), to_int(parts[1])))
    g = Graph(n, edges)
    if g.m != m:
        raise ValueError(f"header announces {m} edges, but only {g.m} are distinct")
    return g


def format_edge_list(g: Graph) -> str:
    out = [f"{g.n} {g.m}"]
    out.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(out) + "\n"


def read_edge_list(path: PathLike) -> Graph:
    return parse_edge_list(_read_text(path))


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
    for line in _read_text(path).splitlines():
        if line.strip():
            graphs.append(parse_graph6(line))
    return graphs


# ---------------------------------------------------------------------------
# Colouring JSON


def format_colouring(x: EdgeColouring) -> str:
    """`json.dumps(x.to_json_dict(), indent=2)` plus a newline, written
    directly: the indenting encoder is pure Python and slow on large
    colourings.  A label is ASCII digits and at most one "'", which JSON
    quotes as they are."""
    g_size = x.palette.g_size
    labels = {c: f'"{colour_label(c, g_size)}"' for c in set(x.colours)}
    rows = ",\n".join(
        f"    [\n      {u},\n      {v},\n      {labels[c]}\n    ]"
        for (u, v), c in zip(x.graph.edges, x.colours)
    )
    edges = f"[\n{rows}\n  ]" if rows else "[]"
    return (
        f'{{\n  "n": {x.graph.n},\n  "palette": {{\n    "g": {g_size},\n'
        f'    "h": {x.palette.h_size}\n  }},\n  "edges": {edges}\n}}\n'
    )


def format_aci(aci: int, witness: EdgeColouring, nodes: int, time_secs: float) -> str:
    """`aci`'s document, as `json.dumps` with indent=2 writes it, plus a
    newline: the colouring is `format_colouring`'s text indented one level."""
    colouring = format_colouring(witness)[:-1].replace("\n", "\n  ")
    return (f'{{\n  "aci": {aci},\n  "colouring": {colouring},\n'
            f'  "nodes": {nodes},\n  "time_secs": {time_secs!r}\n}}\n')


def format_exhausted(lower: int, upper: int, nodes: int, time_secs: float) -> str:
    """The one-line document of a search that ran out of budget, as
    `json.dumps` writes it, plus a newline."""
    return (f'{{"exhausted": true, "lower": {lower}, "upper": {upper}, '
            f'"nodes": {nodes}, "time_secs": {time_secs!r}}}\n')


def format_violation(v: Violation) -> str:
    """The verifier's witness on one line, plus a newline.  Only `verify`
    prints one, and it has imported `json` to read the colouring."""
    import json

    return json.dumps(v.to_json_dict()) + "\n"


def read_colouring(path: PathLike) -> EdgeColouring:
    """A malformed file raises ValueError, deep nesting included."""
    import json

    try:
        data = json.loads(_read_text(path))
    except RecursionError:
        raise ValueError(f"colouring JSON in {path} is nested too deeply") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"colouring JSON in {path} is malformed: {exc}") from None
    return EdgeColouring.from_json_dict(data)


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


def graph_file_matches(path: PathLike, fmt: str, g: Graph) -> bool:
    """Whether the graph file at `path` holds `g`; a malformed file raises
    as `load_graph` does.  An edge list is read once: if its text is
    `format_edge_list(g)`, it is `g`, since the writer emits one text per
    graph and parsing that text rebuilds `g`; any other text is parsed and
    compared."""
    if fmt != "edgelist":
        return load_graph(path, fmt) == g
    text = _read_text(path)
    if text.startswith(f"{g.n} {g.m}\n") and text == format_edge_list(g):
        return True
    return parse_edge_list(text) == g

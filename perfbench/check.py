"""Independent checks of boxcolour CLI output.

Nothing here imports the program under test.  Graphs, colourings and
witnesses are rebuilt from their text forms by the benchmark's own code,
so a defect in the program's verifier cannot hide a defect in its output.

Colours are handled as ``(primed, index)`` tuples, which sort in the
documented palette order: every unprimed colour before every primed one.
"""

from __future__ import annotations

import csv
import io
import json
import re

Edge = tuple[int, int]
Colour = tuple[bool, int]


class CheckError(Exception):
    """An output that contradicts ground truth."""


# ---------------------------------------------------------------------------
# Ground truth

# Exact acyclic chromatic indices of the solve-hard inputs, with the
# argument for each.  Relabelling a graph does not change its index.
ACI_TABLE: dict[str, tuple[int, str]] = {
    "Q6": (7, "6-regular, so >= 7 (two perfect matchings close a 2-coloured "
              "cycle); the source paper's hypercube corollary gives d+1 = 7"),
    "grid8x8": (4, "max degree 4; the paper's theorem on P8 x P8 with "
                   "2-coloured paths gives 2+2 = 4"),
    "K5xP2": (6, "5-regular, so >= 6; the paper's theorem with a'(K5) = 5 "
                 "(chromatic index of K5) and a'(P2) = 1 gives 5+1 = 6"),
    "K6": (7, "forest counting: at most one colour class is a perfect matching, "
              "so 15 <= 3 + 2(k-1) forces k >= 7; Alon, Sudakov, Zaks, J. Graph "
              "Theory 37 (2001): a'(K_{p+1}) = p+2 for odd prime p"),
    "grid6x6": (4, "max degree 4; the paper's theorem on P6 x P6 gives 2+2 = 4"),
}

# Connected graphs on n unlabelled vertices, n = 1..8 (OEIS A001349).
CLASS_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}


# ---------------------------------------------------------------------------
# Graphs, in the program's documented vertex numbering


def norm(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def path_edges(n: int) -> list[Edge]:
    return [(i, i + 1) for i in range(n - 1)]


def cycle_edges(n: int) -> list[Edge]:
    return sorted(norm(i, (i + 1) % n) for i in range(n))


def complete_edges(n: int) -> list[Edge]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def product_edges(ng: int, g: list[Edge], nh: int, h: list[Edge]) -> list[Edge]:
    """Cartesian product, vertex (a, b) numbered a * nh + b (row-major)."""
    out = [norm(a * nh + b, c * nh + b) for a, c in g for b in range(nh)]
    out += [norm(a * nh + b, a * nh + d) for b, d in h for a in range(ng)]
    return sorted(out)


def grid_edges(rows: int, cols: int) -> list[Edge]:
    return product_edges(rows, path_edges(rows), cols, path_edges(cols))


def hypercube_edges(d: int) -> list[Edge]:
    return sorted((u, u | 1 << b) for u in range(1 << d) for b in range(d) if not u >> b & 1)


def relabel(edges: list[Edge], perm: list[int]) -> list[Edge]:
    return sorted(norm(perm[u], perm[v]) for u, v in edges)


def format_edge_list(n: int, edges: list[Edge]) -> str:
    return "".join([f"{n} {len(edges)}\n"] + [f"{u} {v}\n" for u, v in edges])


def parse_edge_list(text: str) -> tuple[int, list[Edge]]:
    rows = [line.split() for line in text.splitlines()
            if line.strip() and not line.lstrip().startswith("#")]
    if not rows or len(rows[0]) != 2:
        raise CheckError("edge list has no 'n m' header")
    n, m = int(rows[0][0]), int(rows[0][1])
    edges = sorted(norm(int(u), int(v)) for u, v in rows[1:])
    if len(edges) != m:
        raise CheckError(f"edge list announces {m} edges, holds {len(edges)}")
    return n, edges


def expect_graph(n: int, edges: list[Edge], want_n: int, want_edges: list[Edge]) -> None:
    if n != want_n or edges != want_edges:
        raise CheckError(f"graph differs from the input: n={n} m={len(edges)}, "
                         f"expected n={want_n} m={len(want_edges)}")


# ---------------------------------------------------------------------------
# Colourings


def parse_label(label: str) -> Colour:
    text = label.strip()
    primed = text.endswith("'")
    index = int(text[:-1] if primed else text)
    if index < 0:
        raise CheckError(f"negative colour {label!r}")
    return (primed, index)


def label_of(colour: Colour) -> str:
    return f"{colour[1]}'" if colour[0] else str(colour[1])


class Colouring:
    """An edge colouring read from the program's JSON form."""

    def __init__(self, doc: dict):
        try:
            self.n = int(doc["n"])
            self.palette = (int(doc["palette"]["g"]), int(doc["palette"]["h"]))
            rows = sorted((norm(int(u), int(v)), parse_label(c)) for u, v, c in doc["edges"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckError(f"malformed colouring document: {exc!r}") from None
        self.edges = [e for e, _ in rows]
        self.colours = [c for _, c in rows]
        if len(set(self.edges)) != len(self.edges):
            raise CheckError("colouring lists an edge twice")
        for primed, index in self.colours:
            if index >= self.palette[1 if primed else 0]:
                raise CheckError(f"colour {label_of((primed, index))} outside palette {self.palette}")

    def used(self) -> list[Colour]:
        return sorted(set(self.colours))

    def to_doc(self) -> dict:
        return {"n": self.n, "palette": {"g": self.palette[0], "h": self.palette[1]},
                "edges": [[u, v, label_of(c)] for (u, v), c in zip(self.edges, self.colours)]}


def improper_vertex(x: Colouring) -> int | None:
    seen: set[tuple[int, Colour]] = set()
    for (u, v), c in zip(x.edges, x.colours):
        for w in (u, v):
            if (w, c) in seen:
                return w
            seen.add((w, c))
    return None


def _root(parent: list[int], v: int) -> int:
    while parent[v] != v:
        parent[v] = parent[parent[v]]
        v = parent[v]
    return v


def _canonical(cyc: list[int]) -> tuple[int, ...]:
    """Rotate to the smallest vertex, then head toward its smaller neighbour."""
    i = cyc.index(min(cyc))
    cyc = cyc[i:] + cyc[:i]
    if cyc[1] > cyc[-1]:
        cyc = [cyc[0]] + cyc[:0:-1]
    return tuple(cyc)


def _forest_path(forest: list[Edge], src: int, dst: int) -> list[int]:
    adj: dict[int, list[int]] = {}
    for u, v in forest:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    back = {src: src}
    queue = [src]
    for v in queue:
        for w in adj.get(v, ()):
            if w not in back:
                back[w] = v
                queue.append(w)
    out = [dst]
    while out[-1] != src:
        out.append(back[out[-1]])
    return out


def bichromatic_cycle(x: Colouring) -> tuple[Colour, Colour, tuple[int, ...]] | None:
    """First two-coloured cycle of a proper colouring, or None.

    Colour pairs go in palette order and edges in sorted order, so the cycle
    closed by the first edge that joins two vertices already connected is
    the witness the CLI documents; it is returned in canonical form.
    """
    by_colour: dict[Colour, list[int]] = {}
    for i, c in enumerate(x.colours):
        by_colour.setdefault(c, []).append(i)
    used = x.used()
    for i, a in enumerate(used):
        for b in used[i + 1:]:
            order = sorted(by_colour[a] + by_colour[b])
            parent = list(range(x.n))
            for pos, ei in enumerate(order):
                u, v = x.edges[ei]
                ru, rv = _root(parent, u), _root(parent, v)
                if ru == rv:
                    forest = [x.edges[e] for e in order[:pos]]
                    return a, b, _canonical(_forest_path(forest, u, v))
                parent[rv] = ru
    return None


def check_colouring(doc: dict, n: int, edges: list[Edge], max_colours: int) -> Colouring:
    """The document colours exactly this graph, properly and acyclically,
    within max_colours colours."""
    x = Colouring(doc)
    expect_graph(x.n, x.edges, n, edges)
    bad = improper_vertex(x)
    if bad is not None:
        raise CheckError(f"two edges of one colour meet at vertex {bad}")
    cyc = bichromatic_cycle(x)
    if cyc is not None:
        raise CheckError(f"two-coloured cycle on {label_of(cyc[0])}, {label_of(cyc[1])}: {cyc[2]}")
    if len(x.used()) > max_colours:
        raise CheckError(f"{len(x.used())} colours used, bound is {max_colours}")
    return x


def check_witness(witness: dict, x: Colouring) -> None:
    """The witness is a cycle of x whose edges alternate its two colours."""
    try:
        kind = witness["kind"]
        a, b = (parse_label(c) for c in witness["colours"])
        cyc = [int(v) for v in witness["cycle"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckError(f"malformed witness: {exc!r}") from None
    if kind != "bichromatic_cycle" or a == b:
        raise CheckError(f"witness is not a two-colour cycle: {witness}")
    if len(cyc) < 4 or len(cyc) % 2 or len(set(cyc)) != len(cyc):
        raise CheckError(f"witness vertices do not form an even cycle: {cyc}")
    colour_of = dict(zip(x.edges, x.colours))
    steps = [colour_of.get(norm(u, v)) for u, v in zip(cyc, cyc[1:] + cyc[:1])]
    half = len(cyc) // 2
    if None in steps or {steps[0], steps[1]} != {a, b} or steps != steps[:2] * half:
        raise CheckError(f"witness edges do not alternate {label_of(a)}/{label_of(b)}: {cyc}")


# ---------------------------------------------------------------------------
# Exact solves and scans


def check_aci(stdout: str, n: int, edges: list[Edge], name: str) -> None:
    """A successful `aci` run: the exact value and a witness that meets it."""
    aci = ACI_TABLE[name][0]
    doc = parse_json(stdout)
    if doc.get("aci") != aci:
        raise CheckError(f"aci of {name} reported as {doc.get('aci')}, truth is {aci}")
    x = check_colouring(doc.get("colouring"), n, edges, aci)
    if len(x.used()) != aci:
        raise CheckError(f"witness for {name} uses {len(x.used())} colours, not {aci}")


def check_exhausted(stdout: str, name: str) -> None:
    """A budget-exhausted `aci` run: its certified bounds must hold the truth."""
    aci = ACI_TABLE[name][0]
    doc = parse_json(stdout)
    lower, upper = doc.get("lower"), doc.get("upper")
    if doc.get("exhausted") is not True or not isinstance(lower, int):
        raise CheckError(f"exhausted run on {name} reports no bounds: {stdout[:200]!r}")
    if lower > aci or (upper is not None and upper < aci):
        raise CheckError(f"bounds [{lower}, {upper}] for {name} exclude the truth {aci}")


def aci_lower_bound(n: int, m: int, delta: int) -> int:
    """Lower bound from (n, m, max degree) alone.

    A colour class is a matching, and two perfect matchings would close a
    two-coloured cycle, so at most one class is perfect.  A regular graph
    (2m = n * delta) therefore needs delta + 1 colours.
    """
    if m == 0:
        return 0
    bound = delta + 1 if delta > 1 and 2 * m == n * delta else delta
    first, rest = (n // 2, n // 2 - 1) if n % 2 == 0 else (n // 2, n // 2)
    k = 1
    while rest and first + (k - 1) * rest < m:
        k += 1
    return max(bound, k)


def check_scan(stdout: str, stderr: str, max_n: int) -> None:
    """`scan --max-n N`: every connected class once, sound values per row.

    Columns are found by name, so added columns do not matter."""
    reader = csv.DictReader(io.StringIO(stdout))
    columns = ("n", "m", "delta", "aci", "excess")
    if not set(columns) <= set(reader.fieldnames or ()):
        raise CheckError(f"scan CSV lacks a column of {columns}")
    per_n: dict[int, int] = {}
    worst = 0
    for row in reader:
        try:
            n, m, delta, aci, excess = (int(row[c]) for c in columns)
        except (TypeError, ValueError):
            raise CheckError(f"scan row is not numeric: {row}") from None
        if not (1 <= n <= max_n and max(n - 1, 0) <= m <= n * (n - 1) // 2
                and delta <= n - 1 and 2 * m <= n * delta):
            raise CheckError(f"scan row is not a connected graph: {row}")
        if not aci_lower_bound(n, m, delta) <= aci <= m or excess != aci - delta:
            raise CheckError(f"scan row has an impossible index: {row}")
        per_n[n] = per_n.get(n, 0) + 1
        worst = max(worst, excess)
    want = {n: CLASS_COUNTS[n] for n in range(1, max_n + 1)}
    if per_n != want:
        raise CheckError(f"class counts per n {per_n}, expected {want}")
    summary = re.search(r"scanned (\d+) graphs, max excess over max degree: (\d+)", stderr)
    if not summary or (int(summary[1]), int(summary[2])) != (sum(per_n.values()), worst):
        raise CheckError(f"scan summary missing or wrong: {stderr.strip()[-200:]!r}")


def parse_json(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckError(f"output is not JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise CheckError("output is not a JSON object")
    return doc

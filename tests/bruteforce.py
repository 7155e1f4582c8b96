"""Independent brute-force oracle for the acyclic chromatic index.

Deliberately shares nothing with the solver's machinery: edges are taken
in plain index order, properness is a direct scan of incident edges, and
acyclicity is a from-scratch union-find pass per colour pair.  A partial
colouring containing a bichromatic cycle can never extend to one without
(extensions only add edges), so pruning on partial violations still
enumerates every acyclic colouring.

The first-use colour cap is the one shared idea (colour c is allowed only
if all smaller colours appear already); it is sound because any colouring
can be relabelled into first-use order along the fixed edge sequence.
`use_cap=False` disables it, so tests can cross-check the cap itself.

`first_fit` is the reference for the greedy colourer: the plain loop that
tries colours 0, 1, ... per edge, with the checks above.

`bichromatic_cycle` is the reference for the library's verifier: the
union-find forest check per colour pair that `check_acyclic` replaced,
kept so the faster walk can be held to the same witnesses.  `proper` is
the reference for its properness half, and `first_clash` for the witness
it reports on an improper colouring.

The colour and product helpers at the end spell out encodings the
library computes inline (`colouring`'s wire labels, `graphs`' row-major
product layout and its origin numbering), so tests can read colourings
and products without a library accessor.  `product` is the
reference for `cartesian_product`: the product by its definition, pair
by pair.

`graph` and `colouring_from_json_dict` are the references for ingest: the
per-edge `Graph` construction (a set of normalised edges, each edge
checked as it comes) and the dict-based reading of colouring JSON (each
row checked, then looked up per edge of the sorted graph, its colour
checked against the palette per edge) that the one-sort, bulk-checked
readers replaced, kept so those can be held to the same graphs,
colourings and error messages.  It reads labels with `label_rank`, a
reference for `parse_colour_label` written from the wire format.
`from_edge_map` builds a colouring from an edge -> colour map, as the
dict-based reader did.  `indexes` is the reference for a graph's
degrees, neighbours and incident edges, computed from the edge list
alone.

`connected_graphs_up_to` is the reference for the corpus: the enumeration
on `Graph` objects (invariant per candidate, pairwise backtracking
`isomorphic` test) that the bitmask enumeration replaced, kept so the
faster one can be held to the same graphs, labellings and order.
"""

import random
from itertools import combinations
from typing import Mapping, Optional

from boxcolour.colouring import (
    BichromaticCycle,
    ColourPalette,
    EdgeColouring,
    NotProper,
    canonical_cycle,
)
from boxcolour.graphs import MAX_VERTICES, Edge, Graph


def _pair_has_cycle(g: Graph, colours: list[int], a: int, b: int) -> bool:
    parent = list(range(g.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for ei, (u, v) in enumerate(g.edges):
        c = colours[ei]
        if c == a or c == b:
            ru, rv = find(u), find(v)
            if ru == rv:
                return True
            parent[ru] = rv
    return False


def _proper_at(g: Graph, colours: list[int], i: int) -> bool:
    u, v = g.edges[i]
    c = colours[i]
    for w in (u, v):
        hits = 0
        for ei in g.incident_edges(w):
            if colours[ei] == c:
                hits += 1
                if hits > 1:
                    return False
    return True


def feasible(g: Graph, k: int, use_cap: bool = True) -> bool:
    """Does g admit an acyclic proper edge colouring with k colours?"""
    colours = [-1] * g.m

    def extend(i: int, used: int) -> bool:
        if i == g.m:
            return True
        top = min(k, used + 1) if use_cap else k
        for c in range(top):
            colours[i] = c
            if _proper_at(g, colours, i):
                others = set(colours[:i]) - {c}
                if not any(_pair_has_cycle(g, colours, c, c2) for c2 in others):
                    if extend(i + 1, max(used, c + 1)):
                        return True
        colours[i] = -1
        return False

    return extend(0, 0)


def first_fit(g: Graph, seed: int = 0) -> list[int]:
    """Each edge takes the smallest colour keeping the colouring proper and
    acyclic; edges in index order, shuffled by `seed` unless it is 0."""
    order = list(range(g.m))
    if seed != 0:
        random.Random(seed).shuffle(order)
    colours = [-1] * g.m
    for i in order:
        c = 0
        while True:
            colours[i] = c
            others = {x for x in colours if x >= 0} - {c}
            if _proper_at(g, colours, i) and not any(
                _pair_has_cycle(g, colours, c, c2) for c2 in others
            ):
                break
            c += 1
    return colours


def brute_aci(g: Graph, use_cap: bool = True) -> int:
    """Smallest feasible colour count, from the properness floor upward."""
    if g.m == 0:
        return 0
    for k in range(max(g.max_degree, 1), g.m + 1):
        if feasible(g, k, use_cap):
            return k
    raise AssertionError("m distinct colours are always feasible")


class _UnionFind:
    __slots__ = ("parent",)

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x: int, y: int) -> bool:
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        self.parent[ry] = rx
        return True


def _two_colour_cycle(g: Graph, x: EdgeColouring, a: int, b: int) -> Optional[tuple[int, ...]]:
    """First cycle in the subgraph of a- and b-coloured edges, as vertices."""
    uf = _UnionFind(g.n)
    adj: dict[int, list[int]] = {}
    for ei, (u, v) in enumerate(g.edges):
        if x.colours[ei] != a and x.colours[ei] != b:
            continue
        if not uf.union(u, v):
            # u and v already joined: the unique tree path plus (u, v) closes
            # the witness cycle
            path = _tree_path(adj, u, v)
            return canonical_cycle(path)
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    return None


def _tree_path(adj: dict[int, list[int]], u: int, v: int) -> list[int]:
    prev = {u: u}
    stack = [u]
    while stack:
        w = stack.pop()
        if w == v:
            break
        for nxt in adj.get(w, ()):
            if nxt not in prev:
                prev[nxt] = w
                stack.append(nxt)
    out = [v]
    while out[-1] != u:
        out.append(prev[out[-1]])
    return out


def bichromatic_cycle(x: EdgeColouring) -> Optional[BichromaticCycle]:
    """First two-colour cycle of a proper colouring, pairs in rank order,
    found by one union-find pass over all edges per pair."""
    used = sorted(set(x.colours))
    for i in range(len(used)):
        for j in range(i + 1, len(used)):
            cyc = _two_colour_cycle(x.graph, x, used[i], used[j])
            if cyc is not None:
                a, b = label_of(x.palette, used[i]), label_of(x.palette, used[j])
                return BichromaticCycle(a, b, cyc)
    return None


def proper(x: EdgeColouring) -> bool:
    """No two edges of equal colour share a vertex."""
    return all(_proper_at(x.graph, x.colours, i) for i in range(x.graph.m))


def first_clash(x: EdgeColouring) -> Optional[NotProper]:
    """The first vertex, in index order, meeting two edges of one colour,
    with the first of its incident edges, in index order, whose colour an
    earlier one repeats, and that earlier edge; None for a proper colouring."""
    g = x.graph
    for v in range(g.n):
        incident = g.incident_edges(v)
        for j, ei in enumerate(incident):
            for ek in incident[:j]:
                if x.colours[ek] == x.colours[ei]:
                    return NotProper(v, g.edges[ek], g.edges[ei])
    return None


def _invariant(g: Graph) -> tuple:
    """Cheap isomorphism invariant used for bucketing."""
    per_vertex = sorted(
        (g.degree(v), tuple(sorted(g.degree(w) for w in g.neighbours(v))))
        for v in range(g.n)
    )
    triangles = sum(
        1
        for a, b, c in combinations(range(g.n), 3)
        if g.has_edge(a, b) and g.has_edge(a, c) and g.has_edge(b, c)
    )
    return (g.n, g.m, triangles, tuple(per_vertex))


def isomorphic(g: Graph, h: Graph) -> bool:
    """Backtracking vertex-map search, mapping only between equal degrees."""
    if g.n != h.n or g.m != h.m:
        return False
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    mapping = [-1] * g.n
    used = [False] * h.n

    def extend(pos: int) -> bool:
        if pos == g.n:
            return True
        v = order[pos]
        for w in range(h.n):
            if used[w] or g.degree(v) != h.degree(w):
                continue
            ok = True
            for prev in order[:pos]:
                if g.has_edge(v, prev) != h.has_edge(w, mapping[prev]):
                    ok = False
                    break
            if not ok:
                continue
            mapping[v] = w
            used[w] = True
            if extend(pos + 1):
                return True
            mapping[v] = -1
            used[w] = False
        return False

    return extend(0)


def connected_graphs_up_to(max_n: int) -> list[Graph]:
    """One connected graph per isomorphism class on 1..max_n vertices: each
    class on n vertices augments one on n-1 by a vertex joined to a subset,
    bucketed by `_invariant`, keeping the first candidate of each class."""
    levels = [[Graph(1, [])]]
    for n in range(2, max_n + 1):
        buckets: dict[tuple, list[Graph]] = {}
        new = n - 1
        for base in levels[-1]:
            for size in range(1, n):
                for subset in combinations(range(n - 1), size):
                    cand = Graph(n, list(base.edges) + [(v, new) for v in subset])
                    bucket = buckets.setdefault(_invariant(cand), [])
                    if not any(isomorphic(cand, seen) for seen in bucket):
                        bucket.append(cand)
        levels.append([g for bucket in buckets.values() for g in bucket])
    return [g for level in levels[:max_n] for g in level]


def label_of(palette: ColourPalette, rank: int) -> str:
    """The wire label of a rank: its index in the g family, or its index in
    the h family marked with a prime."""
    g = palette.g_size
    return str(rank) if rank < g else f"{rank - g}'"


def label_rank(label: str, palette: Optional[ColourPalette]) -> int:
    """The rank a wire label names, checked against `palette`'s family
    sizes; with no palette only the syntax is checked, and -1 returned.
    The label must be exactly what `label_of` writes for some rank."""
    family = "h" if label[-1:] == "'" else "g"
    digits = label[:-1] if family == "h" else label
    if not (digits and set(digits) <= set("0123456789") and str(int(digits)) == digits):
        raise ValueError(f"invalid colour label {label!r}")
    if palette is None:
        return -1
    index = int(digits)
    if index >= (palette.g_size if family == "g" else palette.h_size):
        raise ValueError(f"colour {label} outside palette {palette}")
    return index if family == "g" else palette.g_size + index


def from_edge_map(
    graph: Graph, mapping: Mapping[Edge, int], palette: ColourPalette
) -> EdgeColouring:
    """A colouring of `graph` from an edge -> colour map; a missing edge is
    an error."""
    colours = []
    for e in graph.edges:
        if e not in mapping:
            raise ValueError(f"partial colouring: edge {e} has no colour")
        colours.append(mapping[e])
    return EdgeColouring(graph, colours, palette)


def graph(n: int, edges) -> Graph:
    """A graph built one edge at a time: each edge is checked for range,
    then for a self-loop, as it comes, and the distinct normalised edges
    are collected in a set and sorted."""
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    if n > MAX_VERTICES:
        raise ValueError(f"vertex count {n} exceeds the limit of {MAX_VERTICES}")
    seen: set[Edge] = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge endpoint out of range: ({u}, {v}) with n={n}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        seen.add((min(u, v), max(u, v)))
    return Graph._from_sorted(n, sorted(seen))


def _json_int(value, what: str) -> int:
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def colouring_from_json_dict(data) -> EdgeColouring:
    """Colouring JSON read into an edge -> label dict, one row at a time
    (shape, endpoints, repeat, label syntax), then the graph built from the
    dict's edges by `graph`, and each of its edges looked up, in sorted
    order, with its label read as a rank of the palette."""
    if not isinstance(data, dict):
        raise ValueError("colouring JSON must be an object")
    missing = [key for key in ("n", "palette", "edges") if key not in data]
    if missing:
        raise ValueError(f"colouring JSON lacks {', '.join(map(repr, missing))}")
    sizes, rows = data["palette"], data["edges"]
    if not (isinstance(sizes, dict) and "g" in sizes and "h" in sizes):
        raise ValueError("colouring JSON 'palette' must be an object with 'g' and 'h'")
    if not isinstance(rows, list):
        raise ValueError("colouring JSON 'edges' must be a list")
    mapping: dict[Edge, int] = {}
    for row in rows:
        if not (isinstance(row, list) and len(row) == 3 and isinstance(row[2], str)):
            raise ValueError(f"edge row must be [u, v, colour label], got {row!r}")
        u, v = _json_int(row[0], "edge endpoint"), _json_int(row[1], "edge endpoint")
        e = (min(u, v), max(u, v))
        if e in mapping:
            raise ValueError(f"edge {e} is listed twice")
        label_rank(row[2], None)
        mapping[e] = row[2]
    palette = ColourPalette(
        _json_int(sizes["g"], "palette size"), _json_int(sizes["h"], "palette size")
    )
    g = graph(_json_int(data["n"], "vertex count"), mapping)
    ranks = {e: label_rank(mapping[e], palette) for e in g.edges}
    return from_edge_map(g, ranks, palette)


def indexes(g: Graph) -> tuple[tuple[int, ...], tuple, tuple]:
    """Degrees, neighbours and incident edge indices per vertex, each
    vertex's in edge order, found by scanning the edge list."""
    adj = tuple(
        tuple(b if a == v else a for a, b in g.edges if v in (a, b)) for v in range(g.n)
    )
    incident = tuple(
        tuple(i for i, e in enumerate(g.edges) if v in e) for v in range(g.n)
    )
    return tuple(len(a) for a in adj), adj, incident


def colour_of(x: EdgeColouring, u: int, v: int) -> int:
    return x.colours[x.graph.edge_index(u, v)]


def product_vertex(g_index: int, h_index: int, h_order: int) -> int:
    """Row-major index of the product vertex (g_index, h_index)."""
    return g_index * h_order + h_index


def product_coords(index: int, h_order: int) -> tuple[int, int]:
    """Inverse of `product_vertex`: vertex i * h_order + j is (i, j)."""
    return divmod(index, h_order)


def product(g: Graph, h: Graph) -> Graph:
    """The cartesian product by its definition: every pair of row-major
    vertices that agree in one coordinate and are adjacent in the other."""
    n = g.n * h.n
    g_edges, h_edges = set(g.edges), set(h.edges)
    edges = []
    for u, v in combinations(range(n), 2):
        (i, j), (k, l) = product_coords(u, h.n), product_coords(v, h.n)
        if (i == k and (j, l) in h_edges) or (j == l and (i, k) in g_edges):
            edges.append((u, v))
    return graph(n, edges)


def origin_edge(o: int, g: Graph, h: Graph) -> tuple[str, Edge, int]:
    """Decode the origin number `cartesian_product` gives a product edge:
    ("g", e, j) for the g-edge e inside the copy of g at h-vertex j, and
    ("h", f, i) for the h-edge f inside the copy of h at g-vertex i."""
    if o < h.n * g.m:
        j, e = divmod(o, g.m)
        return "g", g.edges[e], j
    i, f = divmod(o - h.n * g.m, h.m)
    return "h", h.edges[f], i


def origin_endpoints(o: int, g: Graph, h: Graph) -> Edge:
    """The product edge, as a sorted vertex pair, that an origin number names."""
    factor, (a, b), fixed = origin_edge(o, g, h)
    if factor == "g":
        return product_vertex(a, fixed, h.n), product_vertex(b, fixed, h.n)
    return product_vertex(fixed, a, h.n), product_vertex(fixed, b, h.n)

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
the reference for its properness half.

The colour, palette and product helpers at the end spell out encodings
the library computes inline (`colouring`'s primed low bit, `graphs`'
row-major product layout), so tests can read colourings and products
without a library accessor.

`connected_graphs_up_to` is the reference for the corpus: the enumeration
on `Graph` objects (invariant per candidate, pairwise backtracking
`isomorphic` test) that the bitmask enumeration replaced, kept so the
faster one can be held to the same graphs, labellings and order.
"""

import random
from itertools import combinations
from typing import Optional

from boxcolour.colouring import (
    BichromaticCycle,
    ColourPalette,
    EdgeColouring,
    canonical_cycle,
    primed,
    unprimed,
)
from boxcolour.graphs import Edge, GEdge, Graph, HEdge


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
    """First two-colour cycle of a proper colouring, pairs in palette order,
    found by one union-find pass over all edges per pair."""
    used = x.distinct_colours()
    for i in range(len(used)):
        for j in range(i + 1, len(used)):
            cyc = _two_colour_cycle(x.graph, x, used[i], used[j])
            if cyc is not None:
                return BichromaticCycle(used[i], used[j], cyc)
    return None


def proper(x: EdgeColouring) -> bool:
    """No two edges of equal colour share a vertex."""
    return all(_proper_at(x.graph, x.colours, i) for i in range(x.graph.m))


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


def is_primed(colour: int) -> bool:
    return bool(colour & 1)


def colour_index(colour: int) -> int:
    """Position of the colour within its own family."""
    return colour >> 1


def palette_colours(palette: ColourPalette) -> tuple[int, ...]:
    """All colour ids of the palette in canonical order."""
    return tuple(unprimed(j) for j in range(palette.g_size)) + tuple(
        primed(j) for j in range(palette.h_size)
    )


def colour_of(x: EdgeColouring, u: int, v: int) -> int:
    return x.colours[x.graph.edge_index(u, v)]


def product_vertex(g_index: int, h_index: int, h_order: int) -> int:
    """Row-major index of the product vertex (g_index, h_index)."""
    return g_index * h_order + h_index


def product_edge_endpoints(kind, h_order: int) -> Edge:
    """The product edge, as a sorted vertex pair, that a GEdge or HEdge tags."""
    if isinstance(kind, GEdge):
        (u1, u2), v = kind.g_edge, kind.h_vertex
        ends = product_vertex(u1, v, h_order), product_vertex(u2, v, h_order)
    else:
        assert isinstance(kind, HEdge)
        (v1, v2), u = kind.h_edge, kind.g_vertex
        ends = product_vertex(u, v1, h_order), product_vertex(u, v2, h_order)
    return min(ends), max(ends)

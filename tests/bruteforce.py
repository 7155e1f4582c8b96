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
union-find forest check per colour pair that `find_bichromatic_cycle`
replaced, kept so the faster walk can be held to the same witnesses.
"""

import random
from typing import Optional

from boxcolour.colouring import BichromaticCycle, EdgeColouring, canonical_cycle
from boxcolour.graphs import Graph


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

"""Recognise a graph as a cartesian product of two smaller graphs.

The recognition uses the relation delta of Imrich and Klavzar (Hammack,
Imrich and Klavzar, *Handbook of Product Graphs*, 2nd ed., 2011): two
edges are related when they are opposite edges of a chordless 4-cycle, or
when they share a vertex and lie on no common chordless 4-cycle.  In a
product of connected graphs every chordless 4-cycle either lies inside one
copy of a factor or alternates two edges of each factor with opposite
edges from the same factor, so the transitive closure delta* never relates
edges of different factors.

`factorise` takes the delta* class of edge 0 as one side and every other
edge as the other, reads each vertex's two coordinates off the connected
components of the two sides, and then verifies the result outright.  It
is untrusted by its callers all the same: the solver checks the colouring
it builds from a factorisation with `check_acyclic` on the input graph,
so a missed factorisation costs speed and a wrong one is caught.  The
delta* classes and the components both come from the union-find in
`graphs`.
"""

from __future__ import annotations

import time
from math import inf
from typing import Optional, Sequence

from .graphs import Graph, Record, _components, _norm_edge, _root, _union, adjacency


class Factorisation(Record):
    """The input graph is g x h: its vertex v is the row-major product
    vertex `vertex[v]` = i * h.n + j of g x h."""

    __slots__ = ("g", "h", "vertex")


def delta_star(g: Graph, deadline: float = inf) -> Optional[list[int]]:
    """The delta* class of every edge, as the smallest edge index in it,
    or None once `time.perf_counter()` passes `deadline`, which it reads
    once per vertex and neighbour.

    Each chordless 4-cycle u-v-x-w is met from its corner u and the pair
    of neighbours v, w: they are non-adjacent, and x is a common neighbour
    of v and w other than u that is not adjacent to u.
    """
    parent = list(range(g.m))
    index = {e: i for i, e in enumerate(g.edges)}
    adj = adjacency(g)
    near = list(map(frozenset, adj))
    for u, neighbours in enumerate(adj):
        around = [(v, index[_norm_edge(u, v)]) for v in neighbours]
        for a, (v, e) in enumerate(around):
            if time.perf_counter() > deadline:
                return None
            for w, f in around[a + 1 :]:
                square = False
                if w not in near[v]:
                    for x in near[v] & near[w]:
                        if x != u and x not in near[u]:
                            square = True
                            _union(parent, e, index[_norm_edge(x, w)])
                            _union(parent, f, index[_norm_edge(x, v)])
                if not square:
                    _union(parent, e, f)
    return [_root(parent, e) for e in range(g.m)]


def factorise(g: Graph, deadline: float = inf) -> Optional[Factorisation]:
    """g as a product of two connected factors with at least two vertices
    each, or None when delta* does not expose one before `deadline`.

    The delta* class of edge 0 is taken as the first factor's edges and
    every other edge as the second's; `_verified_split` checks the claim.
    """
    classes = delta_star(g, deadline)
    return None if classes is None else _verified_split(g, [c == 0 for c in classes])


def _verified_split(g: Graph, first: Sequence[bool]) -> Optional[Factorisation]:
    """The factorisation that splitting g's edges into those marked in
    `first` and the rest describes, or None if g is not that product.

    Both factors must have at least two vertices, the coordinate map must
    be a bijection onto the product's vertices, and the edge counts must
    agree, m = n_g * m_h + n_h * m_g.  Then every edge changes exactly one
    coordinate by a factor edge, distinct edges land on distinct product
    edges, and the count makes that map onto: g is the product.  The
    factors are connected as well: one side's component is a whole layer
    of the other factor, joined by that side's edges.
    """
    g_side = [e for e, mark in zip(g.edges, first) if mark]
    h_side = [e for e, mark in zip(g.edges, first) if not mark]
    # an h-edge keeps the g-coordinate, so the h-side's components are the
    # g-coordinates, and the other way round
    gi = _components(g.n, h_side)
    hj = _components(g.n, g_side)
    ng, nh = max(gi, default=-1) + 1, max(hj, default=-1) + 1
    vertex = tuple(i * nh + j for i, j in zip(gi, hj))
    if ng < 2 or nh < 2 or ng * nh != g.n or len(set(vertex)) != g.n:
        return None
    fg = Graph(ng, {_norm_edge(gi[u], gi[v]) for u, v in g_side})
    fh = Graph(nh, {_norm_edge(hj[u], hj[v]) for u, v in h_side})
    if g.m != ng * fh.m + nh * fg.m:
        return None
    return Factorisation(fg, fh, vertex)

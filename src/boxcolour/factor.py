"""Recognise a graph as a cartesian product of two smaller graphs.

The recognition is a variant of the relation delta of Imrich and Klavzar
(Hammack, Imrich and Klavzar, *Handbook of Product Graphs*, 2nd ed.,
2011), which relates opposite edges of a chordless 4-cycle, and two edges
that share a vertex and lie on no common chordless 4-cycle.  `delta_star`
takes one pass over the vertices and joins, at each vertex u and for each
pair of its neighbours v and w, either the opposite edges of the one
chordless 4-cycle u-v-x-w or the two edges uv and uw (see `delta_star`).

Cross-pair lemma.  Let g = G x H with G and H connected on at least two
vertices, let u = (a, b), and let v = (a', b) and w = (a, b') be a cross
pair of u's neighbours, one across an edge of each factor.  A common
neighbour of v and w differs from each in one coordinate, so it is u or
x = (a', b'): v and w are non-adjacent, have exactly these two common
neighbours, and x, which differs from u in both coordinates, is not
adjacent to u.  So the rule meets every cross pair as a chordless 4-cycle
and joins uv with xw and uw with xv, each a pair of edges of one factor.
A pair of neighbours across edges of the same factor, say G, has all its
common neighbours in the same copy of G, so every join the rule makes
there is between edges of G.  Hence no class of `delta_star` holds edges
of both factors, whichever factorisation of g is taken, while every
vertex of g has edges of both.  A vertex whose edges all fall into one
class, a fused vertex, thus rules out every factorisation, and
`delta_star` stops at the first.

`factorise` takes the class of edge 0 as one side and every other edge as
the other, reads each vertex's two coordinates off the connected
components of the two sides, and then verifies the result outright.  It
is untrusted by its callers all the same: the solver checks the colouring
it builds from a factorisation with `check_acyclic` on the input graph,
so a missed factorisation costs speed and a wrong one is caught.  The
classes and the components both come from the union-find in `graphs`.
"""

from __future__ import annotations

import time
from math import inf

from .graphs import Graph, Record, _components, _norm_edge, _root, _union


class Factorisation(Record):
    """The input graph is g x h: its vertex v is the row-major product
    vertex `vertex[v]` = i * h.n + j of g x h."""

    __slots__ = ("g", "h", "vertex")


def delta_star(g: Graph, deadline: float = inf) -> list[int] | None:
    """The delta* class of every edge, as the smallest edge index in it;
    or None when some vertex's edges all fall into one class, since g is
    then no product, or once `time.perf_counter()` passes `deadline`,
    which it reads once per vertex and neighbour.

    At each vertex u, every pair of neighbours v, w is met once.  If v and
    w are non-adjacent and their only common neighbours are u and one x
    that is not adjacent to u, then u-v-x-w is a chordless 4-cycle, and
    uv is joined with xw and uw with xv.  Otherwise uv is joined with uw.
    This differs from Imrich and Klavzar's delta only where v and w have
    two or more common neighbours besides u: delta relates the opposite
    edges of each chordless 4-cycle through them, and this rule joins uv
    and uw directly.  It is sound by the cross-pair lemma in the module
    docstring: such a pair lies in one factor.
    """
    parent = list(range(g.m))
    at: list[dict[int, int]] = [{} for _ in range(g.n)]
    for e, (u, v) in enumerate(g.edges):
        at[u][v] = at[v][u] = e
    for u, near in enumerate(at):
        around = list(near.items())
        for a, (v, e) in enumerate(around):
            if time.perf_counter() > deadline:
                return None
            at_v = at[v]
            for w, f in around[a + 1 :]:
                if w not in at_v:
                    common = at_v.keys() & at[w].keys()
                    if len(common) == 2:
                        common.discard(u)
                        x = common.pop()
                        if x not in near:
                            _union(parent, e, at[x][w])
                            _union(parent, f, at_v[x])
                            continue
                _union(parent, e, f)
        if len({_root(parent, e) for e in near.values()}) < 2:
            return None
    return [_root(parent, e) for e in range(g.m)]


def factorise(g: Graph, deadline: float = inf) -> Factorisation | None:
    """g as a product of two connected factors with at least two vertices
    each, or None when delta* does not expose one before `deadline`.

    The delta* class of edge 0 is taken as the first factor's edges and
    every other edge as the second's; `_verified_split` checks the claim.
    """
    classes = delta_star(g, deadline)
    return None if classes is None else _verified_split(g, [c == 0 for c in classes])


def _verified_split(g: Graph, first: list[bool]) -> Factorisation | None:
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

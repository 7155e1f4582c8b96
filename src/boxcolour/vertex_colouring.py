"""Constructive Brooks-style vertex colouring.

`brooks_bound` is the colour budget: max degree plus one for complete
graphs and odd cycles, max degree otherwise.  `brooks_colouring` always
meets that budget, by case analysis rather than search:

  - complete graphs and cycles directly,
  - non-regular graphs by smallest-last greedy,
  - regular graphs with a cut vertex piecewise,
  - remaining regular graphs by the two-neighbour trick: colour two
    non-adjacent neighbours of a root alike, greedy the rest toward the
    root.

Failure to meet the budget is a bug, not an input condition, so it is
raised as RuntimeError after the final verification.
"""

from __future__ import annotations

import heapq

from .colouring import VertexColouring, check_proper_vertex
from .graphs import Graph, GraphClass, classify


def brooks_bound(h: Graph) -> int:
    """Colour budget d: Δ+1 for complete graphs and odd cycles, else Δ."""
    return _bound(classify(h))


def _bound(cls: GraphClass) -> int:
    if cls.is_complete or cls.is_odd_cycle:
        return cls.max_degree + 1
    return cls.max_degree


# ---------------------------------------------------------------------------
# Greedy machinery


def _greedy(h: Graph, order: list[int], preset: dict[int, int] | None = None) -> list[int]:
    """First-fit along `order`; `preset` colours are fixed in advance."""
    colours = [-1] * h.n
    if preset:
        for v, c in preset.items():
            colours[v] = c
    for v in order:
        if colours[v] >= 0:
            continue
        taken = {colours[w] for w in h.neighbours(v) if colours[w] >= 0}
        c = 0
        while c in taken:
            c += 1
        colours[v] = c
    return colours


def _smallest_last_order(h: Graph) -> list[int]:
    """Colouring order whose reverse peels minimum-degree vertices, the
    smallest vertex first among equal degrees.

    A heap of (degree, vertex) with lazy deletion: a degree drop pushes a
    fresh entry, and an entry whose degree is no longer current is skipped
    when popped.  Degrees only fall, so a vertex's current entry always
    pops before its stale ones.
    """
    deg = list(h.degrees)
    removed = [False] * h.n
    heap = [(d, v) for v, d in enumerate(deg)]
    heapq.heapify(heap)
    peel = []
    while heap:
        d, v = heapq.heappop(heap)
        if removed[v] or d != deg[v]:
            continue
        removed[v] = True
        peel.append(v)
        for w in h.neighbours(v):
            if not removed[w]:
                deg[w] -= 1
                heapq.heappush(heap, (deg[w], w))
    peel.reverse()
    return peel


def _induced(h: Graph, vertices: list[int]) -> tuple[Graph, list[int]]:
    """Induced subgraph on `vertices`; returns it with the new->old map."""
    back = sorted(vertices)
    pos = {old: new for new, old in enumerate(back)}
    keep = set(back)
    edges = [(pos[u], pos[v]) for u, v in h.edges if u in keep and v in keep]
    return Graph(len(back), edges), back


def _components_without(h: Graph, banned: set[int]) -> list[list[int]]:
    seen = set(banned)
    out = []
    for start in range(h.n):
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        stack = [start]
        while stack:
            v = stack.pop()
            for w in h.neighbours(v):
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
                    stack.append(w)
        out.append(comp)
    return out


def _cut_vertex(h: Graph) -> int | None:
    for v in range(h.n):
        if len(_components_without(h, {v})) > 1:
            return v
    return None


# ---------------------------------------------------------------------------
# Case constructions


def _colour_cycle(h: Graph) -> list[int]:
    """Walk any 2-regular connected graph, alternating two colours; an odd
    cycle spends colour 2 on the final vertex."""
    walk = [0, min(h.neighbours(0))]
    while len(walk) < h.n:
        a, b = h.neighbours(walk[-1])
        walk.append(a if a != walk[-2] else b)
    colours = [0] * h.n
    for i, v in enumerate(walk):
        colours[v] = i % 2
    if h.n % 2 == 1:
        colours[walk[-1]] = 2
    return colours


def _colour_regular_two_connected(h: Graph) -> list[int]:
    """Two-neighbour trick for a 2-connected regular non-complete graph.

    Finds a root with two non-adjacent neighbours whose removal keeps the
    graph connected, colours those two alike, then greedily colours the rest
    in decreasing distance from the root.  Such a triple always exists when
    the degree is at least three (Lovász, JCTB 1975), so finding none is a
    bug and raises RuntimeError.
    """
    for root in range(h.n):
        nbrs = h.neighbours(root)
        for i in range(len(nbrs)):
            for j in range(i + 1, len(nbrs)):
                u1, u2 = nbrs[i], nbrs[j]
                if h.has_edge(u1, u2):
                    continue
                comps = _components_without(h, {u1, u2})
                if len(comps) != 1:
                    continue
                dist = _bfs_distances(h, root, {u1, u2})
                rest = sorted(
                    (v for v in comps[0] if v != root),
                    key=lambda v: (-dist[v], v),
                )
                order = [u1, u2] + rest + [root]
                return _greedy(h, order, preset={u1: 0, u2: 0})
    raise RuntimeError(f"no two-neighbour triple in a regular graph on {h.n} vertices")


def _bfs_distances(h: Graph, start: int, banned: set[int]) -> list[int]:
    dist = [-1] * h.n
    dist[start] = 0
    queue = [start]
    head = 0
    while head < len(queue):
        v = queue[head]
        head += 1
        for w in h.neighbours(v):
            if w not in banned and dist[w] < 0:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def _colour_regular_with_cut(h: Graph, cut: int) -> list[int]:
    """Split at a cut vertex; every piece sees the cut vertex with reduced
    degree, so smallest-last greedy stays within the budget on each piece.
    Piece colours are permuted so the cut vertex is colour 0 everywhere."""
    colours = [-1] * h.n
    colours[cut] = 0
    for comp in _components_without(h, {cut}):
        piece, back = _induced(h, comp + [cut])
        local = _greedy(piece, _smallest_last_order(piece))
        cut_colour = local[back.index(cut)]
        for new, old in enumerate(back):
            if old == cut:
                continue
            c = local[new]
            if c == cut_colour:
                c = 0
            elif c == 0:
                c = cut_colour
            colours[old] = c
    return colours


# ---------------------------------------------------------------------------
# Entry point


def _normalize(colours: list[int]) -> list[int]:
    """Relabel colours in order of first appearance, so vertex 0 gets 0."""
    relabel: dict[int, int] = {}
    out = []
    for c in colours:
        if c not in relabel:
            relabel[c] = len(relabel)
        out.append(relabel[c])
    return out


def brooks_colouring(h: Graph) -> VertexColouring:
    """Proper vertex colouring within the brooks_bound budget."""
    cls = classify(h)
    budget = _bound(cls)

    if cls.is_complete:
        colours = list(range(h.n))
    elif cls.is_regular and cls.max_degree == 2:
        colours = _colour_cycle(h)
    elif not cls.is_regular:
        colours = _greedy(h, _smallest_last_order(h))
    else:
        cut = _cut_vertex(h)
        if cut is not None:
            colours = _colour_regular_with_cut(h, cut)
        else:
            colours = _colour_regular_two_connected(h)

    result = VertexColouring(h, _normalize(colours))
    bad = check_proper_vertex(result)
    if bad is not None:
        raise RuntimeError(f"constructed colouring is not proper at edge {bad}")
    if result.count() > budget:
        raise RuntimeError(f"used {result.count()} colours, budget is {budget}")
    return result

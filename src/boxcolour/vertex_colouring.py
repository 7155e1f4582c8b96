"""Bounded proper vertex colouring by one greedy.

`brooks_bound` is the colour budget: max degree, plus one when the graph
is regular.  `brooks_colouring` meets it with first-fit in reverse
breadth-first order, rooted at a vertex of least degree (the smallest on
ties), the ordering of Lovász's proof of Brooks' theorem (JCTB 1975).
Every vertex but the root is coloured while its BFS parent is still
uncoloured, so it sees at most max degree - 1 colours; the root has
degree below the max unless the graph is regular.

Failure to meet the budget is a bug, not an input condition, so it is
raised as RuntimeError after the final verification.
"""

from __future__ import annotations

from .colouring import check_proper_vertex
from .graphs import Graph, adjacency, classify


def brooks_bound(h: Graph) -> int:
    """Colour budget: Δ, plus one when h is regular."""
    delta, regular = classify(h)
    return delta + regular


def brooks_colouring(h: Graph) -> list[int]:
    """Proper vertex colouring, one colour per vertex, within the
    brooks_bound budget, its colours relabelled in order of first
    appearance, so vertex 0 gets 0."""
    budget = brooks_bound(h)
    adj = adjacency(h)
    root = min(range(h.n), key=h.degrees.__getitem__)
    order = [root]
    seen = [False] * h.n
    seen[root] = True
    for v in order:  # breadth-first: the list grows while it is walked
        for w in adj[v]:
            if not seen[w]:
                seen[w] = True
                order.append(w)

    colours = [-1] * h.n
    for v in reversed(order):
        taken = {colours[w] for w in adj[v]}
        c = 0
        while c in taken:
            c += 1
        colours[v] = c

    relabel: dict[int, int] = {}
    result = [relabel.setdefault(c, len(relabel)) for c in colours]
    bad = check_proper_vertex(h, result)
    if bad is not None:
        raise RuntimeError(f"constructed colouring is not proper at edge {bad}")
    if len(relabel) > budget:
        raise RuntimeError(f"used {len(relabel)} colours, budget is {budget}")
    return result

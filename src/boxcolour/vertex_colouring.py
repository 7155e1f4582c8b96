"""Bounded proper vertex colouring by one greedy.

`brooks_bound` is the colour budget: max degree, plus one when the graph
is regular.  `brooks_colouring` meets it with first-fit in reverse
breadth-first order, rooted at a vertex of least degree (the smallest on
ties), the ordering of Lovász's proof of Brooks' theorem (JCTB 1975).

Both facts are proved, not checked at run time.  The colouring is
proper: first-fit never repeats a neighbour's colour, since each vertex
takes the least colour its coloured neighbours lack, and a neighbour
coloured later avoids it in turn.  It fits the budget: in reverse BFS
order from a least-degree root, every vertex except the root still has
its BFS parent uncoloured when it is coloured, so it sees at most
max degree - 1 colours; the root has degree below the max unless the
graph is regular.  `check_proper_vertex` and `brooks_bound` state the
two facts for the tests; the construction calls neither, and a defect
would still fail the one `check_acyclic` of the colouring `compose`,
`compose_many` or `exact_aci` hands out.
"""

from __future__ import annotations

from .graphs import Graph, adjacency, classify


def brooks_bound(h: Graph) -> int:
    """Colour budget: Δ, plus one when h is regular."""
    delta, regular = classify(h)
    return delta + regular


def brooks_colouring(h: Graph) -> list[int]:
    """Proper vertex colouring, one colour per vertex, within the
    brooks_bound budget, its colours relabelled in order of first
    appearance, so vertex 0 gets 0.  ValueError unless h is connected
    with at least two vertices, as `classify` requires."""
    classify(h)
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
    return [relabel.setdefault(c, len(relabel)) for c in colours]

"""The exact acyclic chromatic index: the paper's theorem first, then search.

`exact_aci` is the ground-truth oracle.  Before searching it tries the
source paper's theorem as a tactic: a'(G x H) <= a'(G) + a'(H) whenever
max{a'(G), a'(H)} > 1.  When `factor.factorise` recognises the graph as a
product G x H, the factors are solved exactly, by this same function, so
the d-cube becomes K2 x Q(d-1) and so on down, and `compose._compose`
colours the product from their witnesses, which their solves verified.
Mapped back onto the input's vertices, that colouring passes
`check_acyclic` on the input graph before it is used, the one check per
recognised product.  If it meets the certified lower bound it is exact
with no search over the product; otherwise the search (`search._search`)
tries only the colour counts below it, and the composed colouring is the
witness if every one of them is refuted.

The tactic is skipped at once when the vertex count is prime or a vertex
has degree below 2, since a product of connected factors with at least two
vertices each has neither property.  The factors' solves draw on the same
node and time budget as the product's search, and their nodes count in
the result.
"""

from __future__ import annotations

import time
from typing import Optional

from .colouring import EdgeColouring, check_acyclic
from .compose import ComposeInput, _compose
from .factor import factorise
from .graphs import Graph
from .search import AciResult, SearchBudget, _search, greedy_acyclic, lower_bound

__all__ = ["AciResult", "SearchBudget", "exact_aci", "greedy_acyclic", "lower_bound"]


def exact_aci(g: Graph, budget: Optional[SearchBudget] = None) -> AciResult:
    """Exact acyclic chromatic index with a verified witness."""
    return _exact(g, budget or SearchBudget(), time.perf_counter(), 0)


def _exact(g: Graph, budget: SearchBudget, t0: float, nodes: int) -> AciResult:
    bound, nodes = _by_factors(g, budget, t0, nodes)
    return _search(g, budget, t0, nodes, bound)


def _composite(n: int) -> bool:
    return any(n % d == 0 for d in range(2, int(n**0.5) + 1))


def _by_factors(
    g: Graph, budget: SearchBudget, t0: float, nodes: int
) -> tuple[Optional[EdgeColouring], int]:
    """The composed colouring of g, compacted to colours 0..k-1, when g is a
    recognised product that meets the theorem's hypothesis; and the node
    count after the factors' solves."""
    if not (_composite(g.n) and min(g.degrees) >= 2):
        return None, nodes
    f = factorise(g)
    # a connected factor has a' = 1 exactly when it is a single edge, so the
    # hypothesis max{a'(G), a'(H)} > 1 reads max degree > 1; it fails only
    # for K2 x K2, the four-cycle, which is left to the search
    if f is None or max(f.g.max_degree, f.h.max_degree) < 2:
        return None, nodes
    witnesses = []
    for factor in (f.g, f.h):
        result = _exact(factor, budget, t0, nodes)
        nodes = result.nodes
        if result.witness is None:
            return None, nodes
        witnesses.append(result.witness)
    product, x = _compose(ComposeInput(f.g, witnesses[0], f.h, witnesses[1]))
    dense = {c: i for i, c in enumerate(x.distinct_colours())}
    colours = [
        dense[x.colours[product.edge_index(f.vertex[u], f.vertex[v])]] for u, v in g.edges
    ]
    witness = EdgeColouring.single_family(g, colours, len(dense))
    bad = check_acyclic(witness)
    if bad is not None:
        raise RuntimeError(f"product tactic produced an invalid colouring: {bad}")
    return witness, nodes

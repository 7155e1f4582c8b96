"""Build an acyclic edge colouring of a cartesian product from acyclic
colourings of the two factors.

The factor with the larger palette (size eta) keeps its colours, shifted:
inside the copy sitting at vertex v of the other factor, every one of its
edge colours is rotated by the vertex colour of v, modulo eta.  Distinct
rotations never agree anywhere, which is what kills cycles that cross
copies.  The smaller factor's edges become perfect matchings between
copies and keep their own colours, drawn from a disjoint (primed) family.

The shifts come from `brooks_colouring` of the matching factor.  By
Brooks' theorem it uses at most the factor's acyclic lower bound (max
degree, plus one if regular) on every connected graph but a single edge,
so at most beta <= eta colours: the eta rotations cover every vertex
colour and the modulus never needs padding.  A single edge takes 2 colours
against beta = 1, which is fine unless eta = 1 as well.  That product of
two single edges is a four-cycle, which no 2-colouring handles acyclically;
it is a dedicated error and `compose_or_solve` falls back to the exact
search for it.  The search lives in `search`, below this module, because
`solver.exact_aci` in turn uses the construction on the products it
recognises.

`_compose` only builds the colouring; `check_acyclic` runs at the entry
points.  `compose` checks both factors and its output.  `compose_many`
checks every factor passed in, folds `_compose`, and checks only the final
output.  That is enough because each fold colours every copy of the
previous product by an injective relabelling of its colouring: a rotation
of palette ranks when it is the shifted factor, priming when it is the
matching one.  Each copy is a subgraph of the new product, so an improper
vertex or a two-coloured cycle in one fold reappears, relabelled, in every
later fold and fails the final check.  `solver._by_factors` calls
`_compose` on factor witnesses its own solves verified, and checks the
colouring it maps back onto its input.
"""

from __future__ import annotations

from dataclasses import dataclass

from .colouring import (
    ColourPalette,
    EdgeColouring,
    check_acyclic,
    primed,
    unprimed,
)
from .graphs import Graph, _check_dimension, _product_layout, cartesian_product, is_connected
from .search import _search
from .vertex_colouring import brooks_colouring


class C4ProductError(ValueError):
    """Both factors are single edges: their product is the four-cycle,
    whose acyclic chromatic index is 3, not 1+1.  Solve it exactly
    instead (see compose_or_solve)."""


@dataclass(frozen=True)
class ComposeInput:
    g: Graph
    g_colouring: EdgeColouring
    h: Graph
    h_colouring: EdgeColouring


def _validate_factor(name: str, graph: Graph, colouring: EdgeColouring) -> None:
    if graph.n < 2:
        raise ValueError(f"factor {name} must have at least two vertices")
    if not is_connected(graph):
        raise ValueError(f"factor {name} must be connected")
    if colouring.graph != graph:
        raise ValueError(f"colouring of factor {name} belongs to a different graph")
    bad = check_acyclic(colouring)
    if bad is not None:
        raise ValueError(f"colouring of factor {name} is not acyclic: {bad}")


def _verified(x: EdgeColouring) -> EdgeColouring:
    bad = check_acyclic(x)
    if bad is not None:
        raise RuntimeError(f"composed colouring failed verification: {bad}")
    return x


def compose(inp: ComposeInput) -> tuple[Graph, EdgeColouring]:
    """Colour g x h with at most (palette of g) + (palette of h) colours.

    The output graph is always the product in caller order, whichever
    factor ends up supplying the shifted family.
    """
    _validate_factor("g", inp.g, inp.g_colouring)
    _validate_factor("h", inp.h, inp.h_colouring)
    product, x = _compose(inp)
    return product, _verified(x)


def _compose(inp: ComposeInput) -> tuple[Graph, EdgeColouring]:
    """The construction alone, on factors the caller has checked."""
    eta = inp.g_colouring.palette.size
    beta = inp.h_colouring.palette.size
    if eta == 1 and beta == 1:
        raise C4ProductError(
            "both factors are coloured with one colour (single edges); "
            "their product is a 4-cycle and needs 3 colours"
        )

    # orientation: the larger palette plays the shifted role
    swapped = eta < beta
    if swapped:
        shift_x, match_graph, match_x = inp.h_colouring, inp.g, inp.g_colouring
        eta, beta = beta, eta
    else:
        shift_x, match_graph, match_x = inp.g_colouring, inp.h, inp.h_colouring
    y = brooks_colouring(match_graph)  # at most eta colours (module docstring)

    # Colour every product edge in provenance order (see _product_layout):
    # the copy of the shifted factor at matching vertex v has its colour
    # ranks rotated by y(v); every copy of the matching factor keeps its
    # own colours, primed.
    shift_ranks = [shift_x.palette.rank(c) for c in shift_x.colours]
    shifted = [unprimed((r + s) % eta) for s in y.colours for r in shift_ranks]
    matched = [primed(match_x.palette.rank(c)) for c in match_x.colours] * (
        inp.h.n if swapped else inp.g.n
    )
    by_origin = matched + shifted if swapped else shifted + matched

    product, origin = _product_layout(inp.g, inp.h)
    colours = [by_origin[o] for o in origin]
    return product, EdgeColouring(product, colours, ColourPalette(eta, beta))


def compose_or_solve(inp: ComposeInput) -> tuple[Graph, EdgeColouring]:
    """compose, except the single-edge-by-single-edge case is solved
    exactly (it is a 4-cycle; the search returns its 3-colouring)."""
    try:
        return compose(inp)
    except C4ProductError:
        return _solve_four_cycle(inp)


def _solve_four_cycle(inp: ComposeInput) -> tuple[Graph, EdgeColouring]:
    # the search verifies its witness; it places 4 nodes, so no budget binds
    product, _ = cartesian_product(inp.g, inp.h)
    return product, _search(product).witness


def compose_many(factors: list[tuple[Graph, EdgeColouring]]) -> tuple[Graph, EdgeColouring]:
    """Left fold of compose_or_solve over two or more coloured factors.

    Every factor passed in is verified once, and so is the final output;
    the intermediate folds are not (module docstring).
    """
    if len(factors) < 2:
        raise ValueError("need at least two factors")
    for i, (graph, colouring) in enumerate(factors):
        _validate_factor(str(i), graph, colouring)
    graph, colouring = factors[0]
    for next_graph, next_colouring in factors[1:]:
        inp = ComposeInput(graph, colouring, next_graph, next_colouring)
        try:
            graph, colouring = _compose(inp)
        except C4ProductError:
            graph, colouring = _solve_four_cycle(inp)
    return graph, _verified(colouring)


def hypercube_colouring(d: int) -> tuple[Graph, EdgeColouring]:
    """Acyclic colouring of the d-cube: 1 colour for a single edge,
    exactly d+1 colours for d >= 2, built by folding single edges onto
    the exactly-solved four-cycle."""
    _check_dimension(d)
    k2 = Graph(2, [(0, 1)])
    one = EdgeColouring.single_family(k2, [0], 1)
    # the fold's product is laid out row-major, so it equals hypercube(d)
    return (k2, _verified(one)) if d == 1 else compose_many([(k2, one)] * d)

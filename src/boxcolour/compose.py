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
`solver.exact_aci` in turn uses `compose` on the products it recognises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .colouring import (
    ColourPalette,
    EdgeColouring,
    check_acyclic,
    primed,
    unprimed,
)
from .graphs import Graph, _check_dimension, _product_layout, cartesian_product, is_connected
from .search import SearchBudget, _search
from .vertex_colouring import brooks_colouring


@dataclass(frozen=True)
class ShiftPermutation:
    """Rotation j -> (j + shift) mod modulus on colour indices.

    Two rotations with different shifts disagree at every index, so a
    family of them indexed by vertex colours is mutually non-fixing.
    """

    shift: int
    modulus: int

    def __post_init__(self):
        if self.modulus <= 0:
            raise ValueError("modulus must be positive")
        if not 0 <= self.shift < self.modulus:
            raise ValueError(f"shift {self.shift} outside 0..{self.modulus - 1}")

    def __call__(self, index: int) -> int:
        if not 0 <= index < self.modulus:
            raise ValueError(f"colour index {index} outside 0..{self.modulus - 1}")
        return (index + self.shift) % self.modulus


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


def _validate_factor(name: str, graph: Graph, colouring: EdgeColouring, verified: bool) -> None:
    """Structural checks, and `check_acyclic` unless the colouring is a
    fold's own output that was verified when it was built."""
    if graph.n < 2:
        raise ValueError(f"factor {name} must have at least two vertices")
    if not is_connected(graph):
        raise ValueError(f"factor {name} must be connected")
    if colouring.graph != graph:
        raise ValueError(f"colouring of factor {name} belongs to a different graph")
    if verified:
        return
    bad = check_acyclic(colouring)
    if bad is not None:
        raise ValueError(f"colouring of factor {name} is not acyclic: {bad}")


def compose(inp: ComposeInput) -> tuple[Graph, EdgeColouring]:
    """Colour g x h with at most (palette of g) + (palette of h) colours.

    The output graph is always the product in caller order, whichever
    factor ends up supplying the shifted family.
    """
    return _compose(inp, g_verified=False)


def _compose(inp: ComposeInput, g_verified: bool) -> tuple[Graph, EdgeColouring]:
    _validate_factor("g", inp.g, inp.g_colouring, g_verified)
    _validate_factor("h", inp.h, inp.h_colouring, False)

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
    result = EdgeColouring(product, colours, ColourPalette(eta, beta))
    bad = check_acyclic(result)
    if bad is not None:
        raise RuntimeError(f"composed colouring failed verification: {bad}")
    if len(set(colours)) > eta + beta:
        raise RuntimeError("composed colouring exceeded its palette bound")
    return product, result


def compose_or_solve(
    inp: ComposeInput, budget: Optional[SearchBudget] = None
) -> tuple[Graph, EdgeColouring]:
    """compose, except the single-edge-by-single-edge case is solved
    exactly (it is a 4-cycle; the search returns its 3-colouring)."""
    try:
        return compose(inp)
    except C4ProductError:
        return _solve_four_cycle(inp, budget)


def _solve_four_cycle(
    inp: ComposeInput, budget: Optional[SearchBudget]
) -> tuple[Graph, EdgeColouring]:
    product, _ = cartesian_product(inp.g, inp.h)
    result = _search(product, budget)
    if result.witness is None:
        raise RuntimeError("exact solve of the 4-cycle fallback ran out of budget")
    return product, result.witness


def compose_many(factors: list[tuple[Graph, EdgeColouring]]) -> tuple[Graph, EdgeColouring]:
    """Left fold of compose_or_solve over two or more coloured factors.

    Every factor passed in is verified once.  Each fold's output was
    verified when compose (or the exact search) built it, and colourings
    are immutable, so it is not verified again as the next fold's factor.
    """
    if len(factors) < 2:
        raise ValueError("need at least two factors")
    graph, colouring = factors[0]
    verified = False
    for next_graph, next_colouring in factors[1:]:
        inp = ComposeInput(graph, colouring, next_graph, next_colouring)
        try:
            graph, colouring = _compose(inp, g_verified=verified)
        except C4ProductError:
            graph, colouring = _solve_four_cycle(inp, None)
        verified = True
    return graph, colouring


def hypercube_colouring(d: int) -> tuple[Graph, EdgeColouring]:
    """Acyclic colouring of the d-cube: 1 colour for a single edge,
    exactly d+1 colours for d >= 2, built by folding single edges onto
    the exactly-solved four-cycle."""
    _check_dimension(d)
    k2 = Graph(2, [(0, 1)])
    one = EdgeColouring.single_family(k2, [0], 1)
    # the fold's product is laid out row-major, so it equals hypercube(d)
    return (k2, one) if d == 1 else compose_many([(k2, one)] * d)

"""Build an acyclic edge colouring of a cartesian product from acyclic
colourings of the two factors; each colouring carries its factor graph.

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
two single edges is the four-cycle, which no 2-colouring handles
acyclically; `_compose` returns its literal 3-colouring instead, which
`compose_or_solve` and `compose_many` hand out, and `compose` raises a
dedicated error for it once both factors have passed their checks.
Every function here returns the colouring alone; its graph is the product.

`_compose` only builds the colouring; `check_acyclic` runs at the entry
points, on the four-cycle's colouring as on any other.  `compose` and
`compose_or_solve` check both factors and their output.  `compose_many`
checks every factor passed in, folds `_compose`, and checks only the final
output.  That is enough because each fold colours every copy of the
previous product by an injective relabelling of its colouring: a rotation
of palette ranks when it is the shifted factor, priming when it is the
matching one.  Each copy is a subgraph of the new product, so an improper
vertex or a two-coloured cycle in one fold, the four-cycle's included,
reappears, relabelled, in every later fold and fails the final check.
`solver._by_factors` calls `_compose` on factor witnesses its own solves
verified, and checks the colouring it maps back onto its input.
"""

from __future__ import annotations

from functools import reduce

from .colouring import ColourPalette, EdgeColouring, check_acyclic, primed, unprimed
from .graphs import Graph, _check_dimension, cartesian_product, is_connected
from .vertex_colouring import brooks_colouring


class C4ProductError(ValueError):
    """Both factors are single edges: their product is the four-cycle,
    whose acyclic chromatic index is 3, not 1+1.  compose_or_solve
    and compose_many return its 3-colouring instead."""


def _validate_factor(name: str, x: EdgeColouring) -> None:
    if x.graph.n < 2:
        raise ValueError(f"factor {name} must have at least two vertices")
    if not is_connected(x.graph):
        raise ValueError(f"factor {name} must be connected")
    bad = check_acyclic(x)
    if bad is not None:
        raise ValueError(f"colouring of factor {name} is not acyclic: {bad}")


def _verified(x: EdgeColouring) -> EdgeColouring:
    bad = check_acyclic(x)
    if bad is not None:
        raise RuntimeError(f"composed colouring failed verification: {bad}")
    return x


def compose(xg: EdgeColouring, xh: EdgeColouring) -> EdgeColouring:
    """Colour g x h, the product of the graphs of xg and xh, with at most
    (palette of xg) + (palette of xh) colours.

    The output graph is always the product in caller order, whichever
    factor ends up supplying the shifted family.
    """
    _validate_factor("g", xg)
    _validate_factor("h", xh)
    if xg.palette.size == 1 and xh.palette.size == 1:
        raise C4ProductError(
            "both factors are coloured with one colour (single edges); "
            "their product is a 4-cycle and needs 3 colours"
        )
    return _verified(_compose(xg, xh))


def compose_or_solve(xg: EdgeColouring, xh: EdgeColouring) -> EdgeColouring:
    """compose, except that the product of two single edges, the
    four-cycle, gets its 3-colouring."""
    _validate_factor("g", xg)
    _validate_factor("h", xh)
    return _verified(_compose(xg, xh))


def _compose(xg: EdgeColouring, xh: EdgeColouring) -> EdgeColouring:
    """The construction alone, on factors the caller has checked; for two
    single edges, the four-cycle's 3-colouring."""
    eta, beta = xg.palette.size, xh.palette.size
    if eta == 1 and beta == 1:
        return _four_cycle()

    # orientation: the larger palette plays the shifted role
    swapped = eta < beta
    if swapped:
        shift_x, match_x = xh, xg
        eta, beta = beta, eta
    else:
        shift_x, match_x = xg, xh
    y = brooks_colouring(match_x.graph)  # at most eta colours (module docstring)

    # Colour every product edge in provenance order (see cartesian_product):
    # the copy of the shifted factor at matching vertex v has its colour
    # ranks rotated by y(v); every copy of the matching factor keeps its
    # own colours, primed.
    shift_ranks = [shift_x.palette.rank(c) for c in shift_x.colours]
    shifted = [unprimed((r + s) % eta) for s in y.colours for r in shift_ranks]
    matched = [primed(match_x.palette.rank(c)) for c in match_x.colours] * shift_x.graph.n
    by_origin = matched + shifted if swapped else shifted + matched

    product, origin = cartesian_product(xg.graph, xh.graph)
    colours = [by_origin[o] for o in origin]
    return EdgeColouring(product, colours, ColourPalette(eta, beta))


def _four_cycle() -> EdgeColouring:
    """K2 x K2 with an acyclic 3-colouring, which is optimal.

    It is the only product the construction cannot colour: a proper
    colouring from a palette of one colour leaves every vertex at most one
    edge, so a connected factor with at least two vertices, as every
    checked factor is, is a single edge.  The product is laid out
    row-major, so its edges are (0,1), (0,2), (1,3), (2,3); the colours
    0, 1, 1, 2 are proper, and no cycle is two-coloured since the only
    cycle has three.
    """
    c4 = Graph._from_sorted(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    return EdgeColouring.single_family(c4, [0, 1, 1, 2], 3)


def compose_many(colourings: list[EdgeColouring]) -> EdgeColouring:
    """Left fold of compose_or_solve over two or more factor colourings.

    Every colouring passed in is verified once, and so is the final
    output; the intermediate folds are not (module docstring).
    """
    if len(colourings) < 2:
        raise ValueError("need at least two factors")
    for i, x in enumerate(colourings):
        _validate_factor(str(i), x)
    return _verified(reduce(_compose, colourings))


def hypercube_colouring(d: int) -> EdgeColouring:
    """Acyclic colouring of the d-cube: 1 colour for a single edge,
    exactly d+1 colours for d >= 2, built by folding single edges onto
    the four-cycle's 3-colouring."""
    _check_dimension(d)
    k2 = Graph(2, [(0, 1)])
    one = EdgeColouring.single_family(k2, [0], 1)
    # the fold's product is laid out row-major, so its graph is hypercube(d)
    return _verified(one) if d == 1 else compose_many([one] * d)

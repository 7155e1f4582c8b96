"""Build an acyclic edge colouring of a cartesian product from acyclic
colourings of the two factors; each colouring carries its factor graph.

Colours are palette ranks (see `colouring`).  The factor with the larger
palette (size eta) keeps its colours, shifted: inside the copy sitting at
vertex v of the other factor, colour c becomes (c + y(v)) mod p, where y
is a vertex colouring of the other factor and the modulus p is the larger
of eta and the number of colours y uses.  The smaller factor's edges
become perfect matchings between copies and keep their own colours in a
disjoint block after the rotations: colour c becomes p + c.

Why that is acyclic.  Each copy gets an injective relabelling of its
factor's colouring into a block of its own, so the product is proper,
and a cycle on two rotated or two matching colours stays in one copy,
coloured as its factor is, relabelled.  A cycle on a rotated colour a and
a matching colour p + c alternates between the copies at the ends of one
matching edge vw of colour c.  As y(v) != y(w), both below p, its a-edges
have the shifted factor's colour a - y(v) mod p in one copy and the
other colour a - y(w) mod p in the other, so its projection onto that
factor is a closed walk alternating two colours, which never turns back:
a two-coloured cycle, which the factor's colouring does not have.

The shifts come from `brooks_colouring` of the matching factor: at most
Δ colours, or Δ + 1 on a regular factor (see `vertex_colouring`).  beta
counts a proper edge colouring, so beta >= Δ, and beta >= Δ + 1 on a
regular factor with Δ >= 2, where Δ colours would make every class a
perfect matching and two of them a two-coloured cycle.  So the shifts
take at most beta <= eta colours, and p = eta, on every connected factor
but a single edge, which takes 2 against beta = 1.  That pads the modulus
only when eta = 1 too: two single edges make the four-cycle, in 2 + 1 = 3
colours, its acyclic chromatic index, though the paper's theorem, which
needs max{eta, beta} > 1, leaves it out.  `compose`, which promises
eta + beta, raises a dedicated error for it once both factors have passed
their checks; `compose_or_solve` and `compose_many` colour it like any
other.  Every function here returns the colouring alone, for the product.

`_compose` only builds the colouring; `check_acyclic` runs at the entry
points.  `compose` and `compose_or_solve` check both factors and their
output.  `compose_many` checks every factor passed in, folds `_compose`,
and checks only the final output.  That is enough because each fold
colours every copy of the previous product by an injective relabelling of
its colouring: a rotation of ranks when it is the shifted factor, the
shift by p when it is the matching one.  Each copy is a subgraph of the
new product, so an improper vertex or a two-coloured cycle in one fold
reappears, relabelled, in every later fold and fails the final check.
`solver._by_factors` calls `_compose` on factor witnesses its own solves
verified, and checks the colouring it maps back onto its input.
"""

from __future__ import annotations

from functools import reduce

from .colouring import ColourPalette, EdgeColouring, check_acyclic
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
    four-cycle, gets its 3-colouring (module docstring)."""
    _validate_factor("g", xg)
    _validate_factor("h", xh)
    return _verified(_compose(xg, xh))


def _compose(xg: EdgeColouring, xh: EdgeColouring) -> EdgeColouring:
    """The construction alone, on factors the caller has checked."""
    eta, beta = xg.palette.size, xh.palette.size

    # orientation: the larger palette plays the shifted role
    swapped = eta < beta
    if swapped:
        shift_x, match_x = xh, xg
        eta, beta = beta, eta
    else:
        shift_x, match_x = xg, xh
    y = brooks_colouring(match_x.graph)
    # above eta only for two single edges (module docstring)
    p = max(eta, y.count())

    # Colour every product edge in provenance order (see cartesian_product):
    # the copy of the shifted factor at matching vertex v has its colours
    # rotated by y(v); every copy of the matching factor keeps its own
    # colours, after the p rotations.
    shifted = [(c + s) % p for s in y.colours for c in shift_x.colours]
    matched = [p + c for c in match_x.colours] * shift_x.graph.n
    by_origin = matched + shifted if swapped else shifted + matched

    product, origin = cartesian_product(xg.graph, xh.graph)
    colours = [by_origin[o] for o in origin]
    return EdgeColouring(product, colours, ColourPalette(p, beta))


def compose_many(colourings: list[EdgeColouring]) -> EdgeColouring:
    """compose_or_solve folded over two or more factor colourings, within
    the sum of their palettes, or d + 1 colours for d single edges.

    The fold starts at the first factor whose palette exceeds 1 and then
    attaches the factors before it on the left, so two single edges meet
    only when every factor is one, and the four-cycle's third colour is
    paid only then.  Row-major numbering is the same under any bracketing,
    so the graph is the product in caller order.  Every colouring passed
    in is verified once, and so is the final output; the intermediate
    folds are not (module docstring).
    """
    if len(colourings) < 2:
        raise ValueError("need at least two factors")
    for i, x in enumerate(colourings):
        _validate_factor(str(i), x)
    start = next((i for i, x in enumerate(colourings) if x.palette.size > 1), 0)
    acc = reduce(_compose, colourings[start:])
    for x in reversed(colourings[:start]):
        acc = _compose(x, acc)
    return _verified(acc)


def hypercube_colouring(d: int) -> EdgeColouring:
    """Acyclic colouring of the d-cube: 1 colour for a single edge,
    exactly d+1 colours for d >= 2, built by folding single edges: the
    first fold is the four-cycle in 3 colours, and each later one adds a
    matching colour."""
    _check_dimension(d)
    k2 = Graph(2, [(0, 1)])
    one = EdgeColouring.single_family(k2, [0], 1)
    # the fold's product is laid out row-major, so its graph is hypercube(d)
    return _verified(one) if d == 1 else compose_many([one] * d)

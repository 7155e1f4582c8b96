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
needs max{eta, beta} > 1, leaves it out.  Every function here returns the
colouring alone, for the product.

`_compose` only builds the colouring; `check_acyclic` runs at the entry
points.  `compose` checks both factors and its output.  `compose_many`
checks every factor passed in, folds `_compose`, and checks only the
final output.  That is enough because each fold colours every copy of
the previous product by an injective relabelling of its colouring: a
rotation of ranks when it is the shifted factor, the shift by p when it
is the matching one.  Each copy is a subgraph of the new product, so an
improper vertex or a two-coloured cycle in one fold reappears,
relabelled, in every later fold and fails the final check.
`solver._by_factors` calls `_compose` the same way, on factor witnesses
no one has checked yet, and `solver.exact_aci` checks only the colouring
it returns.
"""

from __future__ import annotations

from .colouring import ColourPalette, EdgeColouring, check_acyclic
from .graphs import Graph, _check_dimension, cartesian_product, is_connected
from .vertex_colouring import brooks_colouring


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
    eta + beta colours, the sum of their palettes, or 3 for two single
    edges (module docstring).

    The output graph is always the product in caller order, whichever
    factor ends up supplying the shifted family.
    """
    _validate_factor("g", xg)
    _validate_factor("h", xh)
    return _verified(_compose(xg, xh))


# a second name for compose, kept while the benchmark tracer wraps it; it
# goes when ROADMAP item 4's benchmark change drops that tracer target
compose_or_solve = compose


def _compose(xg: EdgeColouring, xh: EdgeColouring) -> EdgeColouring:
    """The construction alone, on factors the caller has checked."""
    # orientation: the larger palette plays the shifted role
    swapped = xg.palette.size < xh.palette.size
    shift_x, match_x = (xh, xg) if swapped else (xg, xh)
    eta, beta = shift_x.palette.size, match_x.palette.size
    # the product checks its size limits before any colour list is built
    product, origin = cartesian_product(xg.graph, xh.graph)
    y = brooks_colouring(match_x.graph)
    # above eta only for two single edges (module docstring)
    p = max(eta, max(y) + 1)

    # Colour every product edge in provenance order (see cartesian_product):
    # the copy of the shifted factor at matching vertex v has its colours
    # rotated by y(v); every copy of the matching factor keeps its own
    # colours, after the p rotations.
    shifted = [(c + s) % p for s in y for c in shift_x.colours]
    matched = [p + c for c in match_x.colours] * shift_x.graph.n
    by_origin = matched + shifted if swapped else shifted + matched
    colours = [by_origin[o] for o in origin]
    return EdgeColouring(product, colours, ColourPalette(p, beta))


def compose_many(colourings: list[EdgeColouring]) -> EdgeColouring:
    """compose folded over two or more factor colourings, within the sum
    of their palettes, or d + 1 colours for d single edges.

    The fold starts at the first factor whose palette exceeds 1 and then
    attaches the factors before it on the left, so two single edges meet,
    and the padded modulus pays the four-cycle's third colour, only when
    every factor is one.  Row-major numbering is the same under any
    bracketing, so the graph is the product in caller order.  Every
    colouring passed in is verified once, and so is the final output; the
    intermediate folds are not (module docstring).
    """
    if len(colourings) < 2:
        raise ValueError("need at least two factors")
    for i, x in enumerate(colourings):
        _validate_factor(str(i), x)
    start = next((i for i, x in enumerate(colourings) if x.palette.size > 1), 0)
    acc = colourings[start]
    for x in colourings[start + 1 :]:
        acc = _compose(acc, x)
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

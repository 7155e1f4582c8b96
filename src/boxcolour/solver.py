"""The exact acyclic chromatic index: the paper's theorem first, then search.

`exact_aci` is the ground-truth oracle.  Before searching it tries the
source paper's theorem as a tactic: a'(G x H) <= a'(G) + a'(H) whenever
max{a'(G), a'(H)} > 1.  When `factor.factorise` recognises the graph as a
product G x H, the factors are solved exactly, by this same function, so
the d-cube becomes K2 x Q(d-1) and so on down to the four-cycle K2 x K2,
which the theorem leaves out, and `compose._compose` colours each product
from its factors' witnesses; that colouring is mapped back onto the
input's vertices.  If it meets the certified lower bound it is exact with
no search over the product; otherwise the search tries only the colour
counts below it, and the composed colouring is the witness if every one
of them is refuted.

`exact_aci` is the solver's one check site: `check_acyclic` runs once, on
the witness it returns, whether or not the budget ran out.  That is
sound: `lower` comes only from `lower_bound` and refuted levels, never
from a colouring; a valid composed colouring never uses fewer colours
than `lower_bound`, and a defective one, even one that uses fewer, is
either dropped or returned and fails the check; and a defect in an inner
fold, or in a factor's search witness, reaches the returned colouring
through an injective relabelling (see `compose`), so the one check
catches it too.

The tactic is tried only where the counts allow a product.  A product of
connected factors G and H on a and b >= 2 vertices has n = a * b, minimum
degree at least 2, maximum degree Delta_G + Delta_H <= a + b - 2, and
m = a * m_H + b * m_G >= a(b - 1) + b(a - 1) = 2n - a - b edges, since a
connected graph on k vertices has at least k - 1 edges.  A graph that no
split of n satisfies is not factorised (`_admits_product`).  A graph the
counts let through gets one pass of `factor.delta_star`, which stops at
the first vertex whose edges all fall into one class, since no product
has such a vertex; K_{a,a}, which has the counts of K2 x K_a, stops at
its first.  The split it leaves is then checked by
`factor._verified_split`.

A solve spends one budget.  One deadline, the solve's start plus the
budget's seconds, bounds both the recognition and every search; the
factors' solves draw on the same node budget as the product's search,
and their nodes count in the result.  `nodes` counts every node placed,
plus the one that found the budget spent: once a search has run out, no
later search of the solve places a node, so an exhausted factor leaves
the product's search nothing either.  Recognition past the deadline
gives up as if the graph were no product, and the search then stops at
its first clock read.

`lower_bound` is the larger of the degree bound and the forest-counting
bound of the densest subgraph met by peeling off a vertex of least degree
at a time.  It is sound because an acyclic colouring restricts to every
subgraph S, so a'(S) <= a'(G).  The regular graph's +1 has no subgraph
version, since in a connected graph only the whole graph can be regular
of its max degree; and peeling misses little: of the 12,112 graphs with
an edge and at most 8 vertices, the best of all vertex subsets has a
larger forest count than every prefix on 18, and raises the bound on 3.

`_search` is the exact core: iterative deepening on the colour count k
from the certified `lower_bound`, and for each k a backtracking search
over edges in a fixed order (degree-sum descending).  `_first_colouring` is
that search, one loop over plain locals: the search keeps its stack
explicitly, as the colour assigned at each position of the order, so its
depth is bounded by memory rather than by Python's recursion limit.
Pruning per assignment:

  - properness via per-vertex colour bitmasks: the candidate colours of
    an edge are the bits of its range held by neither endpoint's mask,
  - canonical symmetry breaking (a colour may be opened only if every
    smaller colour has been used already),
  - acyclicity via alternating-path walks: a new bichromatic cycle through
    the edge being coloured must alternate its colour c with some colour
    c' already present at both endpoints, and the {c, c'} subgraph has
    maximum degree two, so a single forced walk decides it; with no
    colour shared by the endpoints there is nothing to walk.

First feasible k is exact; the run at k-1 having been exhausted is the
infeasibility certificate.  All tie-breaking is lexicographic by
(edge index, colour index) for reproducibility.

`_first_fit` runs the same search with k = m, where it never
backtracks: the first colour that fits is kept, which is first-fit.  It
checks nothing: `greedy_acyclic` checks what it returns, and when a
search runs out of budget its colouring may become `exact_aci`'s
witness, which is checked there like any other.
"""

from __future__ import annotations

import time
from math import isqrt

from .colouring import EdgeColouring, check_acyclic, colours_used
from .compose import _compose
from .factor import factorise
from .graphs import Graph, Record, _components, _norm_edge, adjacency


class SearchBudget(Record):
    __slots__ = ("max_nodes", "max_time")

    def __init__(self, max_nodes: int = 100_000_000, max_time: float = 60.0):
        # `not (x > 0)` rejects NaN too, which no clock or node count exceeds
        if not (max_nodes > 0 and max_time > 0):
            raise ValueError("budget limits must be positive")
        Record.__init__(self, max_nodes, max_time)


class AciResult(Record):
    """Outcome of an exact solve: certified bounds lower <= a'(g) <= upper
    and `witness`, a colouring of g with `upper` colours checked by
    `exact_aci`; when the budget ran out it is greedy's or the product
    tactic's, whichever uses fewer.  `aci` (exact, or None) and `exhausted`
    are read off the bounds, so neither can disagree with them.  `tactic`
    names the witness's maker: "search", "factor" (the product tactic) or
    "greedy".  `nodes` counts every search node placed, the factors' solves'
    included, plus the one that found the budget spent; one deadline bounds
    both product recognition and search.  `seconds` is the wall time up to
    the final check.
    """

    __slots__ = ("witness", "nodes", "seconds", "lower", "upper", "tactic")

    @property
    def aci(self) -> int | None:
        return self.lower if self.lower == self.upper else None

    @property
    def exhausted(self) -> bool:
        return self.lower != self.upper


class _OutOfBudget(Exception):
    pass


class _Meter:
    """What one solve has spent: `nodes` placed, against `max_nodes`, and
    the clock, started at `t0`, against `deadline`, which the searches and
    `factorise` alike read.  `spent` is set when a search runs out, and no
    later search of the solve places a node.  The defaults meter nothing,
    for first-fit, which places exactly m nodes."""

    __slots__ = ("nodes", "max_nodes", "t0", "deadline", "spent")

    def __init__(self, max_nodes: float = float("inf"), max_time: float = float("inf")):
        self.nodes, self.max_nodes, self.spent = 0, max_nodes, False
        self.t0 = time.perf_counter()
        self.deadline = self.t0 + max_time


def forest_bound(g: Graph) -> int:
    """Fewest colours the edge count allows, by counting matchings.

    Each colour class is a matching, so it has at most n/2 edges.  Two
    classes together form a forest, so two perfect matchings, whose union
    is a spanning union of cycles, cannot both be classes: for even n at
    most one class has n/2 edges and every other at most n/2 - 1.  Hence
    m <= n/2 + (k-1)(n/2 - 1) for even n and m <= k(n-1)/2 for odd n
    (Alon, Sudakov and Zaks, J. Graph Theory 37, 2001).  Nothing here
    needs the graph connected: isolated vertices only loosen the count.
    """
    return _forest(g.n, g.m)


def _forest(n: int, m: int) -> int:
    # `forest_bound` of a graph with n vertices and m edges
    if m == 0:
        return 0
    half = n // 2
    if n % 2:
        return -(-m // half)
    if m <= half:
        return 1
    # half >= 2 here, since for n = 2 the only edge count is 1
    return 1 + -(-(m - half) // (half - 1))


def lower_bound(g: Graph) -> int:
    """The certified lower bound the search starts from: the larger of the
    degree bound and the forest bound of the densest peeled subgraph.

    The degree bound is the max degree, plus one when the graph is regular
    of degree above one.  The extra one is forced: in a proper Δ-edge-
    colouring of a Δ-regular graph every colour class is a perfect matching,
    and any two perfect matchings union to a disjoint set of bichromatic
    cycles.  `forest_bound` is larger on dense graphs: 7 against 6 on K6,
    9 against 8 on K8.

    An acyclic colouring of g restricts to one of each subgraph S, so
    a'(g) >= a'(S) >= forest_bound(S).  `_peeled` takes S over the prefixes
    of a peeling, the core-decomposition order of Batagelj and Zaversnik
    (arXiv cs/0310049): K4 with a pendant edge reads 5, K4's index, where
    the whole graph gives 4.  The regular +1 has no subgraph version: an
    r-regular subgraph gives r + 1 <= Δ when r < Δ, and a Δ-regular one
    sends no edge out, so in a connected graph it is the whole graph.  And
    peeling is near the best vertex subset: over the 12,112 graphs with an
    edge and at most 8 vertices, the best of all 2^n subsets has a larger
    forest count than every prefix on only 18, and a larger bound on 3.

    Peeling first drops a vertex of least degree δ, so the first prefix
    has n - 1 vertices and m - δ edges and needs no peel.  The next vertex
    peeled has degree at least δ - 1, so a later prefix has at most n - 2
    vertices and m - 2δ + 1 edges: the peel runs only where `_may_beat`
    lets such a prefix raise the bound, and stops once none can.
    """
    n, m, degrees = g.n, g.m, g.degrees
    delta, low = max(degrees, default=0), min(degrees, default=0)
    if delta > 1 and low == delta:
        delta += 1
    bound = max(delta, _forest(n, m), _forest(n - 1, m - low))
    # the cycle rank m - n + c lies between m - n + 1 and m: where the low
    # end already lets a prefix beat the bound, the peel runs capped at m,
    # which only lets it meet prefixes that cannot beat it; the component
    # count, a pass over the edges, is paid only where the two ends differ
    if _may_beat(bound, n - 2, m - 2 * low + 1, m - n + 1):
        return _peeled(g, bound, m)
    if not _may_beat(bound, n - 2, m - 2 * low + 1, m):
        return bound
    rank = m - n + 1 + max(_components(n, g.edges))
    return _peeled(g, bound, rank) if _may_beat(bound, n - 2, m - 2 * low + 1, rank) else bound


def _may_beat(bound: int, n: int, m: int, rank: int) -> bool:
    """Whether a subgraph on at most n vertices and m edges, of a graph
    whose cycle rank (edges - vertices + components) is at most `rank`,
    may have a forest bound above `bound`, B >= 1 (an edgeless graph has
    nothing above 0).  On n' vertices and m' edges the bound exceeds B
    just when 2m' > B(n' - 1) for odd n' and 2m' > B(n' - 2) + 2 for even
    n'.  As 2m' <= n'(n' - 1), an even n' must be at least B and an odd
    one at least B + 1, so n' >= k = B + B % 2, and then either case
    needs 2m' > B(k - 2) + 2.

    Deleting an edge lowers the cycle rank by one or splits a component
    and keeps it, and deleting an isolated vertex keeps it, so a
    subgraph's rank r' = m' - n' + c' is at most the graph's.  As c' >= 1,
    either case above gives 2r' >= 2(m' - n' + 1) > (B - 2)(k - 2) for
    B >= 2, so no subgraph beats B once (B - 2)(k - 2) >= 2 * rank: a
    forest (rank 0) never peels.  For B = 1 the callers' bound is at least
    the max degree, so the graph is a matching, whose rank 0 the test
    refuses, and no subgraph of a matching beats 1."""
    k = bound + bound % 2
    return k <= n and 2 * m > bound * (k - 2) + 2 and (bound - 2) * (k - 2) < 2 * rank


def _peeled(g: Graph, bound: int, rank: int) -> int:
    """The larger of `bound` and the forest bound of each prefix of g's
    peeling, which removes a vertex of least degree, the lowest on ties,
    in O((n + m) log n); a prefix on fewer than 3 vertices has a bound of
    at most 1, so it never counts; it stops once `_may_beat`, given
    `rank`, at least g's cycle rank, leaves no smaller prefix room.  The
    heap holds (degree, vertex) entries, sorted to start with; an entry is
    stale once its vertex's degree has moved, and a peeled vertex's degree
    is -1."""
    # only a peel needs heapq, so hypercube, compose and verify never load it
    from heapq import heappop, heappush

    degree, adj = list(g.degrees), adjacency(g)
    heap = sorted(zip(degree, range(g.n)))
    n, m = g.n, g.m
    while _may_beat(bound, n - 1, m, rank):
        d, v = heappop(heap)
        if d == degree[v]:
            degree[v] = -1
            for u in adj[v]:
                e = degree[u]
                if e > 0:
                    degree[u] = e - 1
                    heappush(heap, (e - 1, u))
            n, m = n - 1, m - d
            bound = max(bound, _forest(n, m))
    return bound


def _edge_order(g: Graph) -> list[int]:
    deg = g.degrees
    key = [-(deg[u] + deg[v]) for u, v in g.edges]
    # sorted is stable, so ties keep the edge order
    return sorted(range(g.m), key=key.__getitem__)


def _first_colouring(g: Graph, order: list[int], k: int, meter: _Meter) -> list[int] | None:
    """First colouring with colours 0..k-1, by backtracking over the edges
    in `order` and the colours in increasing order.

    A colour may open only after every smaller one is used; `limits[pos]`
    is the exclusive colour bound that rule leaves at position `pos`.  The
    colours of the edges before `pos` are the stack: backtracking to a
    position removes its colour and resumes the scan above it.  Returns the
    colouring (indexed by edge) or None if there is none, and adds the
    nodes it placed to `meter.nodes`; raises _OutOfBudget past the meter's
    node count or deadline, or at once if an earlier search ran out.

    mask[v] is the bitmask of colours at v, and at[v][c] the neighbour
    joined to v by the c-coloured edge (unique by properness).  The free
    colours of an edge uv are the bits in its range that neither mask
    holds.  Colouring uv with a free c closes a bichromatic cycle only
    through a colour c' at both u and v, and the {c, c'} edges form paths
    and cycles, so the one walk from u along c', c, c', ... decides it:
    the walk meets v after a c' step or stops.
    """
    if meter.spent:
        raise _OutOfBudget
    edges = g.edges
    m = len(edges)
    colours = [-1] * m
    if m == 0:
        return colours
    mask = [0] * g.n
    at: list[dict[int, int]] = [{} for _ in range(g.n)]
    nodes, max_nodes, deadline = meter.nodes, meter.max_nodes, meter.deadline
    last = m - 1
    limits = [min(k, 1)] * m
    pos = start = 0
    try:
        while True:
            ei = order[pos]
            u, v = edges[ei]
            limit = limits[pos]
            mu, mv = mask[u], mask[v]
            free = ((1 << limit) - (1 << start)) & ~(mu | mv)
            shared = mu & mv
            partners = []
            while shared:
                low = shared & -shared
                shared ^= low
                partners.append(low.bit_length() - 1)
            at_u = at[u]
            while free:
                bit = free & -free
                free ^= bit
                c = bit.bit_length() - 1
                for cp in partners:
                    w = at_u[cp]
                    while w != v:
                        w = at[w].get(c)
                        if w is None:
                            break
                        w = at[w].get(cp)
                        if w is None:
                            break
                    else:
                        break  # the walk reached v: c would close a cycle
                else:  # no walk reached v: place c
                    nodes += 1
                    if nodes > max_nodes or nodes % 2048 == 0 and time.perf_counter() > deadline:
                        meter.spent = True
                        raise _OutOfBudget
                    colours[ei] = c
                    if pos == last:
                        return colours
                    mask[u] = mu | bit
                    mask[v] = mv | bit
                    at_u[c] = v
                    at[v][c] = u
                    pos += 1
                    limits[pos] = limit + 1 if c + 1 == limit < k else limit
                    start = 0
                    break
            else:
                if pos == 0:
                    return None
                pos -= 1
                ei = order[pos]
                u, v = edges[ei]
                c = colours[ei]
                mask[u] ^= 1 << c
                mask[v] ^= 1 << c
                del at[u][c]
                del at[v][c]
                start = c + 1
    finally:
        meter.nodes = nodes


def _first_fit(g: Graph, order: list[int]) -> EdgeColouring:
    """First-fit over the edges in `order`: the search with k = m, which
    never backtracks and places exactly m nodes, so it runs unmetered.  It
    checks nothing; its callers check what they return."""
    colours = _first_colouring(g, order, g.m, _Meter())
    return EdgeColouring.single_family(g, colours, max(colours, default=-1) + 1)


def _search(g: Graph, meter: _Meter, bound: EdgeColouring | None) -> AciResult:
    """Exact acyclic chromatic index by search, or certified bounds.

    The search tries k = lower_bound, k + 1, ..., never backtracking at
    k = m, and spends `meter`.  `bound`, the product tactic's colouring,
    limits it to the k below its colour count and is the witness if all of
    them are refuted.  If the search at k runs out of budget, k is the
    lower bound and the better of first-fit and `bound`, `bound` on a tie,
    the witness and upper bound.  This is where every result is built.
    """
    order = _edge_order(g)
    upper = g.m + 1 if bound is None else colours_used(bound)
    # kept if every k from the certified lower bound up to the bound's count fails
    witness, lower, tactic = bound, upper, "factor"
    try:
        for k in range(lower_bound(g), upper):
            found = _first_colouring(g, order, k, meter)
            if found is not None:
                lower = upper = k
                witness, tactic = EdgeColouring.single_family(g, found, k), "search"
                break
    except _OutOfBudget:
        lower = k
        # without a bound, upper is m + 1, more than first-fit ever uses
        greedy = _first_fit(g, list(range(g.m)))
        used = colours_used(greedy)
        if used < upper:
            witness, upper, tactic = greedy, used, "greedy"
    return AciResult(witness, meter.nodes, time.perf_counter() - meter.t0, lower, upper, tactic)


def greedy_acyclic(g: Graph, seed: int = 0) -> EdgeColouring:
    """First-fit acyclic colouring, opening a new colour when none fits.

    Seed 0 keeps the natural edge order; any other seed shuffles it.  This
    is the exact search with k = m, which never backtracks: a colour used
    nowhere yet always fits, though one merely absent from both endpoints
    may close a cycle.
    """
    order = list(range(g.m))
    if seed != 0:
        # only a shuffle needs random, so seed 0 never loads it
        import random

        random.Random(seed).shuffle(order)
    x = _first_fit(g, order)
    bad = check_acyclic(x)
    if bad is not None:
        raise RuntimeError(f"greedy produced an invalid colouring: {bad}")
    return x


def exact_aci(g: Graph, budget: SearchBudget | None = None) -> AciResult:
    """Exact acyclic chromatic index, or certified bounds when the budget
    runs out, with a witness checked here, the solver's one check site."""
    budget = budget or SearchBudget()
    result = _exact(g, _Meter(budget.max_nodes, budget.max_time))
    bad = check_acyclic(result.witness)
    if bad is not None:
        raise RuntimeError(f"solver produced an invalid colouring: {bad}")
    return result


def _exact(g: Graph, meter: _Meter) -> AciResult:
    return _search(g, meter, _by_factors(g, meter))


def _admits_product(g: Graph) -> bool:
    """Whether g's vertex, edge and degree counts allow a product of
    connected factors on a and b >= 2 vertices, n = a * b (see the module
    docstring).  Both count bounds loosen as a + b grows, and a + n/a
    falls as a rises to sqrt(n), so only the split with the smallest a is
    tested.  The vertex count comes first, so a graph of prime order, or
    with no vertex at all, reads no degree."""
    n = g.n
    for a in range(2, isqrt(n) + 1):
        if n % a == 0:
            s = a + n // a
            return g.m >= 2 * n - s and g.max_degree <= s - 2 and min(g.degrees) >= 2
    return False


def _by_factors(g: Graph, meter: _Meter) -> EdgeColouring | None:
    """The composed colouring of g, as one family, when g is a recognised
    product whose factors are solved exactly within `meter`.  Its palette
    is eta + beta, or 3 for the four-cycle K2 x K2, which the theorem
    leaves out and the padded modulus covers (see `compose`), and every
    rank in it is used: the factors' witnesses are exact, so each uses its
    whole palette, and the rotations of a whole palette are whole."""
    if not _admits_product(g):
        return None
    # past the deadline, recognition gives up as if g were no product
    f = factorise(g, meter.deadline)
    if f is None:
        return None
    witnesses = []
    for factor in (f.g, f.h):
        result = _exact(factor, meter)
        if result.exhausted:
            return None
        witnesses.append(result.witness)
    x = _compose(*witnesses)
    colour, vertex = dict(zip(x.graph.edges, x.colours)), f.vertex
    colours = [colour[_norm_edge(vertex[u], vertex[v])] for u, v in g.edges]
    return EdgeColouring.single_family(g, colours, x.palette.size)

"""The backtracking search for acyclic edge colourings.

`_search` is the exact core: iterative deepening on the colour count k,
and for each k a backtracking search over edges in a fixed order
(degree-sum descending).  The search keeps its stack explicitly, as the
colour assigned at each position of the order, so its depth is bounded by
memory rather than by Python's recursion limit.  Pruning per assignment:

  - properness via per-vertex colour bitmasks,
  - canonical symmetry breaking (a colour may be opened only if every
    smaller colour has been used already),
  - acyclicity via alternating-path walks: a new bichromatic cycle through
    the edge being coloured must alternate its colour c with some colour
    c' already present at both endpoints, and the {c, c'} subgraph has
    maximum degree two, so a single forced walk decides it.

First feasible k is exact; the run at k-1 having been exhausted is the
infeasibility certificate.  All tie-breaking is lexicographic by
(edge index, colour index) for reproducibility.  `solver.exact_aci` runs
this search after its product tactic, and `compose` runs it on the one
product the construction excludes.

`greedy_acyclic` runs the same search with k = m, where it never
backtracks: the first colour that fits is kept, which is first-fit.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Optional

from .colouring import EdgeColouring, check_acyclic, colours_used
from .graphs import Graph


@dataclass(frozen=True)
class SearchBudget:
    max_nodes: int = 100_000_000
    max_time: float = 60.0

    def __post_init__(self):
        if self.max_nodes <= 0 or self.max_time <= 0:
            raise ValueError("budget limits must be positive")


@dataclass(frozen=True)
class AciResult:
    """Outcome of an exact solve.

    On success `aci` is the exact value, `witness` a verified colouring with
    exactly `aci` colours, and lower == aci == upper.  If the budget ran out
    while the certified lower bound was below the best colouring known,
    `aci` and `witness` are None, `exhausted` is True, and [lower, upper]
    are the best certified bounds; `upper` counts the colours of the
    greedy colouring or of the product tactic's colouring, whichever uses
    fewer.  If that colouring meets the lower bound, it is the witness and
    the result is exact.

    `tactic` names what produced the witness, or, for an exhausted result,
    the colouring behind `upper`: "search" (the backtracking search),
    "factor" (the paper's construction on a recognised product, see
    `solver.exact_aci`) or "greedy".  `nodes` counts every search node
    placed, in the factors' solves as well.
    """

    aci: Optional[int]
    witness: Optional[EdgeColouring]
    nodes: int
    seconds: float
    exhausted: bool
    lower: int
    upper: Optional[int]
    tactic: str


class _OutOfBudget(Exception):
    def __init__(self, nodes: int):
        self.nodes = nodes


def lower_bound(g: Graph) -> int:
    """Max degree, plus one when the graph is regular of degree above one.

    The extra one is forced: in a proper Δ-edge-colouring of a Δ-regular
    graph every colour class is a perfect matching, and any two perfect
    matchings union to a disjoint set of bichromatic cycles.
    """
    delta = g.max_degree
    if delta > 1 and all(d == delta for d in g.degrees):
        return delta + 1
    return delta


class _Partial:
    """Mutable partial colouring with O(cycle) acyclicity tests.

    mask[v] is the bitmask of colours incident to v; at[v][c] is the
    neighbour joined to v by the c-coloured edge (unique by properness).
    """

    __slots__ = ("mask", "at")

    def __init__(self, n: int):
        self.mask = [0] * n
        self.at: list[dict[int, int]] = [dict() for _ in range(n)]

    def blocked(self, u: int, v: int, c: int) -> bool:
        return bool((self.mask[u] | self.mask[v]) & (1 << c))

    def creates_cycle(self, u: int, v: int, c: int) -> bool:
        """Would colouring the uncommitted edge (u, v) with c close a
        bichromatic cycle?  Walk the forced {c, c'} path from u for each
        candidate partner colour c'; reaching v closes the cycle."""
        at = self.at
        cand = self.mask[u] & self.mask[v]
        while cand:
            low = cand & -cand
            cp = low.bit_length() - 1
            cand ^= low
            pos = at[u][cp]
            expect = c
            while True:
                if pos == v:
                    return True
                nxt = at[pos].get(expect)
                if nxt is None:
                    break
                pos = nxt
                expect = cp if expect == c else c
        return False

    def assign(self, u: int, v: int, c: int) -> None:
        bit = 1 << c
        self.mask[u] |= bit
        self.mask[v] |= bit
        self.at[u][c] = v
        self.at[v][c] = u

    def unassign(self, u: int, v: int, c: int) -> None:
        bit = 1 << c
        self.mask[u] ^= bit
        self.mask[v] ^= bit
        del self.at[u][c]
        del self.at[v][c]


def _edge_order(g: Graph) -> list[int]:
    return sorted(
        range(g.m), key=lambda i: (-(g.degree(g.edges[i][0]) + g.degree(g.edges[i][1])), i)
    )


def _first_colouring(
    g: Graph, order: list[int], k: int, budget: SearchBudget, t0: float, nodes: int
) -> tuple[Optional[list[int]], int]:
    """First colouring with colours 0..k-1, by backtracking over the edges
    in `order` and the colours in increasing order.

    A colour may open only after every smaller one is used; `limits[pos]`
    is the exclusive colour bound that rule leaves at position `pos`.  The
    colours of the edges before `pos` are the stack: backtracking to a
    position removes its colour and resumes the scan above it.  Returns the
    colouring (indexed by edge) or None if there is none, with the node
    count carried on from `nodes`; raises _OutOfBudget past the budget.
    """
    colours = [-1] * g.m
    if g.m == 0:
        return colours, nodes
    edges = g.edges
    state = _Partial(g.n)
    blocked, creates_cycle = state.blocked, state.creates_cycle
    assign, unassign = state.assign, state.unassign
    max_nodes, max_time = budget.max_nodes, budget.max_time
    last = g.m - 1
    limits = [min(k, 1)] * g.m
    pos = 0
    start = 0
    while True:
        ei = order[pos]
        u, v = edges[ei]
        limit = limits[pos]
        for c in range(start, limit):
            if blocked(u, v, c) or creates_cycle(u, v, c):
                continue
            nodes += 1
            if nodes > max_nodes:
                raise _OutOfBudget(nodes)
            if nodes % 2048 == 0 and time.perf_counter() - t0 > max_time:
                raise _OutOfBudget(nodes)
            colours[ei] = c
            if pos == last:
                return colours, nodes
            assign(u, v, c)
            pos += 1
            limits[pos] = limit + 1 if c + 1 == limit < k else limit
            start = 0
            break
        else:
            if pos == 0:
                return None, nodes
            pos -= 1
            ei = order[pos]
            u, v = edges[ei]
            start = colours[ei]
            unassign(u, v, start)
            start += 1


def _search(
    g: Graph,
    budget: Optional[SearchBudget] = None,
    t0: Optional[float] = None,
    nodes: int = 0,
    bound: Optional[EdgeColouring] = None,
) -> AciResult:
    """Exact acyclic chromatic index by search, with a verified witness.

    The search tries k = max(lower_bound, 1), k + 1, ... and counts its
    nodes on from `nodes`, against a budget whose clock started at `t0`.
    `bound` is a verified single-family colouring of g from the product
    tactic: only the k below its colour count are searched, and if all of
    them are refuted it is the exact witness.
    """
    budget = budget or SearchBudget()
    t0 = time.perf_counter() if t0 is None else t0

    if g.m == 0:
        witness = EdgeColouring.single_family(g, [], 0)
        return AciResult(0, witness, nodes, time.perf_counter() - t0, False, 0, 0, "search")

    order = _edge_order(g)
    start = max(lower_bound(g), 1)
    stop = g.m + 1 if bound is None else colours_used(bound)
    for k in range(start, stop):
        try:
            found, nodes = _first_colouring(g, order, k, budget, t0, nodes)
        except _OutOfBudget as exc:
            return _exhausted(g, k, exc.nodes, t0, bound)
        if found is not None:
            witness = EdgeColouring.single_family(g, found, k)
            bad = check_acyclic(witness)
            if bad is not None:
                raise RuntimeError(f"solver produced an invalid witness: {bad}")
            return AciResult(k, witness, nodes, time.perf_counter() - t0, False, k, k, "search")
    if bound is None:
        raise RuntimeError("unreachable: m distinct colours are always acyclic")
    # every k from the certified lower bound up to the bound's count failed
    k = stop
    return AciResult(k, bound, nodes, time.perf_counter() - t0, False, k, k, "factor")


def _exhausted(
    g: Graph, k: int, nodes: int, t0: float, bound: Optional[EdgeColouring]
) -> AciResult:
    """The result when the search at k runs out of budget: k is a certified
    lower bound, and the better of greedy and `bound` the upper one."""
    best, tactic = greedy_acyclic(g), "greedy"
    if bound is not None and colours_used(bound) <= colours_used(best):
        best, tactic = bound, "factor"
    upper = colours_used(best)
    seconds = time.perf_counter() - t0
    if upper == k:
        # the colouring (already verified) meets the certified lower bound
        return AciResult(k, best, nodes, seconds, False, k, k, tactic)
    return AciResult(None, None, nodes, seconds, True, k, upper, tactic)


def greedy_acyclic(g: Graph, seed: int = 0) -> EdgeColouring:
    """First-fit acyclic colouring, opening a new colour when none fits.

    Seed 0 keeps the natural edge order; any other seed shuffles it.  This
    is the exact search with k = m, which never backtracks: a colour
    incident to neither endpoint passes both checks, so the next unopened
    colour always fits, and first-fit never needs more than 2(Δ-1)+1
    colours.  It places exactly m nodes, so its budget never runs out.
    """
    order = list(range(g.m))
    if seed != 0:
        random.Random(seed).shuffle(order)
    unlimited = SearchBudget(max_nodes=g.m + 1, max_time=float("inf"))
    colours, _ = _first_colouring(g, order, g.m, unlimited, 0.0, 0)
    k = max(colours) + 1 if g.m else 0
    x = EdgeColouring.single_family(g, colours, k)
    bad = check_acyclic(x)
    if bad is not None:
        raise RuntimeError(f"greedy produced an invalid colouring: {bad}")
    return x

"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import random
import time

from bruteforce import brute_aci, origin_edge
from boxcolour.colouring import (
    EdgeColouring,
    check_acyclic,
    check_proper_vertex,
    colours_used,
)
from boxcolour.compose import compose, compose_many, hypercube_colouring
from boxcolour.corpus import connected_graphs_up_to
from boxcolour.graphs import cartesian_product, complete, cycle, hypercube, path
from boxcolour.solver import exact_aci, lower_bound
from boxcolour.vertex_colouring import brooks_bound, brooks_colouring


def _report(number: int, description: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_1_exact_values():
    ok = True
    for g, want in [(complete(2), 1), (cycle(4), 3), (hypercube(3), 4)]:
        t0 = time.monotonic()
        result = exact_aci(g)
        elapsed = time.monotonic() - t0
        ok = ok and result.aci == want and elapsed < 10.0
    _report(1, "exact index 1 on a single edge, 3 on the 4-cycle, 4 on the 3-cube, each under 10 s", ok)


def test_criterion_2_hypercube_family():
    t0 = time.monotonic()
    ok = True
    for d in range(2, 8):
        x = hypercube_colouring(d)
        ok = ok and colours_used(x) == d + 1
        ok = ok and check_acyclic(x) is None
        ok = ok and lower_bound(x.graph) == d + 1
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 30.0
    _report(2, f"hypercubes d=2..7 coloured with exactly d+1 colours, optimal by the regular bound ({elapsed:.1f} s < 30 s)", ok)


def test_criterion_3_grid_tightness():
    t0 = time.monotonic()
    ok = True
    for m in range(3, 7):
        for n in range(3, 7):
            pm, pn = path(m), path(n)
            x = compose(exact_aci(pm).witness, exact_aci(pn).witness)
            ok = ok and check_acyclic(x) is None
            ok = ok and colours_used(x) == 4 == x.graph.max_degree
    p3 = path(3)
    xp = exact_aci(p3).witness
    x = compose_many([xp] * 3)
    ok = ok and check_acyclic(x) is None and colours_used(x) == 6
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 10.0
    _report(3, f"grids 3..6 squared need exactly 4 colours, the cubed 3-path exactly 6 ({elapsed:.1f} s < 10 s)", ok)


def _invariants_hold(g, h, xg, xh, x) -> bool:
    if check_acyclic(x) is not None:
        return False
    if colours_used(x) > xg.palette.size + xh.palette.size:
        return False
    _, origin = cartesian_product(g, h)
    swapped = xg.palette.size < xh.palette.size
    eta = x.palette.g_size
    matching: dict = {}
    shifted: dict = {}
    for o, c in zip(origin, x.colours):
        factor, edge, copy_vertex = origin_edge(o, g, h)
        if (factor == "g") != swapped:
            # shifted family: ranks below eta, one per (edge, copy vertex)
            if c >= eta:
                return False
            shifted.setdefault(edge, {})[copy_vertex] = c
        else:
            # matching family: ranks from eta on, identical across copies
            if c < eta:
                return False
            matching.setdefault(edge, set()).add(c)
    if any(len(cols) != 1 for cols in matching.values()):
        return False
    copies_factor = g if swapped else h
    for per_copy in shifted.values():
        for v1, v2 in copies_factor.edges:
            if per_copy[v1] == per_copy[v2]:
                return False
    return True


def test_criterion_4_theorem_property_suite():
    pool = [g for g in connected_graphs_up_to(7) if g.n >= 2]
    rng = random.Random(0)
    cache: dict = {}

    def witness(g):
        if g not in cache:
            cache[g] = exact_aci(g).witness
        return cache[g]

    pairs_checked = 0
    failures = 0
    while pairs_checked < 200:
        g, h = rng.choice(pool), rng.choice(pool)
        xg, xh = witness(g), witness(h)
        if max(xg.palette.size, xh.palette.size) <= 1:
            continue
        x = compose(xg, xh)
        if not _invariants_hold(g, h, xg, xh, x):
            failures += 1
        pairs_checked += 1
    ok = failures == 0
    _report(4, f"composition invariants on {pairs_checked} random factor pairs, {failures} failures", ok)


def test_criterion_5_oracle_equivalence():
    t0 = time.monotonic()
    mismatches = 0
    count = 0
    for g in connected_graphs_up_to(6):
        count += 1
        if exact_aci(g).aci != brute_aci(g):
            mismatches += 1
    elapsed = time.monotonic() - t0
    ok = mismatches == 0 and elapsed < 600.0
    _report(5, f"solver equals brute force on all {count} connected graphs up to 6 vertices ({elapsed:.1f} s < 600 s)", ok)


def test_criterion_6_conjecture_scan():
    violations = 0
    for g in connected_graphs_up_to(6):
        aci = exact_aci(g).aci
        if aci > g.max_degree + 2:
            violations += 1
        delta = g.max_degree
        if delta >= 2 and all(d == delta for d in g.degrees) and aci < delta + 1:
            violations += 1
    ok = violations == 0
    _report(6, "index at most max degree plus two everywhere; regular graphs need one extra colour", ok)


def test_criterion_7_brooks_bound():
    failures = 0
    count = 0
    for g in connected_graphs_up_to(7):
        if g.n < 2:
            continue
        count += 1
        y = brooks_colouring(g)
        if check_proper_vertex(y) is not None or y.count() > brooks_bound(g):
            failures += 1
    ok = failures == 0
    _report(7, f"vertex colouring proper and within budget on all {count} connected graphs up to 7 vertices", ok)


def test_criterion_8_single_edge_square():
    k2 = complete(2)
    one = EdgeColouring.single_family(k2, [0], 1)
    x = compose(one, one)
    ok = (
        x.graph == cartesian_product(k2, k2)[0]
        and (x.graph.n, x.graph.m) == (4, 4)
        and colours_used(x) == 3
        and check_acyclic(x) is None
    )
    _report(8, "product of two single edges composed as the 4-cycle in 3 colours, its index", ok)

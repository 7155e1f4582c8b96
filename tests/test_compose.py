import importlib
import itertools
import random
import tracemalloc
from functools import reduce

import pytest
from hypothesis import example, given, settings, strategies as st

from bruteforce import colour_of, origin_edge
from boxcolour.colouring import (
    ColourPalette,
    EdgeColouring,
    check_acyclic,
    check_proper_vertex,
    colours_used,
)
from boxcolour.compose import compose, compose_many, hypercube_colouring
from boxcolour.corpus import connected_graphs_up_to
from boxcolour.graphs import (
    Graph,
    cartesian_product,
    complete,
    cycle,
    grid,
    hypercube,
    path,
)
from boxcolour.solver import SearchBudget, exact_aci, lower_bound
from boxcolour.vertex_colouring import brooks_bound, brooks_colouring


def one_edge() -> tuple[Graph, EdgeColouring]:
    k2 = complete(2)
    return k2, EdgeColouring.single_family(k2, [0], 1)


def solved(g: Graph) -> EdgeColouring:
    return exact_aci(g).witness


def test_shifts_are_mutually_non_fixing():
    # compose rotates colour ranks by vertex colours: two rotations with
    # different shifts disagree at every rank
    eta, d = 4, 3
    for i in range(d):
        for k in range(d):
            if i != k:
                for j in range(eta):
                    assert (j + i) % eta != (j + k) % eta


def test_two_single_edges_make_the_four_cycle_in_three_colours():
    # the pair the paper's theorem leaves out: the padded modulus gives
    # 2 + 1 colours, a'(C4), the cube's own colouring of Q2
    k2, x = one_edge()
    result = compose(x, x)
    assert result.graph == cartesian_product(k2, k2)[0] == hypercube(2)
    assert colours_used(result) == 3 == exact_aci(cycle(4)).aci
    assert result.palette == ColourPalette(2, 1)
    assert check_acyclic(result) is None
    assert result == hypercube_colouring(2)


def test_cube_from_cycle_and_edge():
    c4 = cycle(4)
    k2, xk = one_edge()
    x = compose(solved(c4), xk)
    assert x.graph == cartesian_product(c4, k2)[0]
    assert check_acyclic(x) is None
    assert colours_used(x) <= 4


def test_grid_from_paths_is_degree_tight():
    p3 = path(3)
    x = compose(solved(p3), solved(p3))
    assert x.graph == grid(3, 3)
    assert check_acyclic(x) is None
    assert colours_used(x) == 4 == x.graph.max_degree


def test_restrictions_match_the_factors():
    # the first factor's palette (3) dominates, so roles stay in caller order
    g, h = cycle(5), path(4)
    xg, xh = solved(g), solved(h)
    x = compose(xg, xh)
    _, origin = cartesian_product(g, h)
    y = brooks_colouring(h)  # the shifts compose uses
    eta = xg.palette.size
    for o, c in zip(origin, x.colours):
        factor, edge, fixed = origin_edge(o, g, h)
        if factor == "h":
            # every copy of an h-edge keeps its own colour, after the eta
            # rotations
            assert c == eta + colour_of(xh, *edge)
        else:
            # a copy of g at vertex v is g's colouring rotated by y(v)
            assert c == (colour_of(xg, *edge) + y[fixed]) % eta
    assert x.palette.g_size == eta and x.palette.h_size == xh.palette.size


def test_swap_when_second_palette_is_larger():
    k2, xk = one_edge()
    c4 = cycle(4)
    x = compose(xk, solved(c4))
    # output stays in caller order
    product, origin = cartesian_product(k2, c4)
    assert x.graph == product
    assert check_acyclic(x) is None
    assert colours_used(x) <= 4
    # after the swap the caller's g-edges are the matching family, whose
    # ranks follow the shifted family's
    for o, c in zip(origin, x.colours):
        assert (c >= x.palette.g_size) == (origin_edge(o, k2, c4)[0] == "g")


def test_an_oversize_product_is_refused_before_its_colours_are_built():
    # P4000 x P4000 has 16,000,000 vertices; its colour lists would hold
    # 2 * 4000 * 3999 entries
    x = EdgeColouring.single_family(path(4000), [i % 2 for i in range(3999)], 2)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="vertex count 16000000 exceeds the limit"):
            compose(x, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


def test_factor_validation():
    _, xk = one_edge()
    with pytest.raises(ValueError, match="connected"):
        compose(EdgeColouring.single_family(Graph(2, []), [], 1), xk)
    with pytest.raises(ValueError, match="two vertices"):
        compose(EdgeColouring.single_family(Graph(1, []), [], 1), xk)
    # proper but bichromatic factor colouring
    c4 = cycle(4)
    bad = EdgeColouring.single_family(c4, [0, 1, 1, 0], 2)
    with pytest.raises(ValueError, match="acyclic"):
        compose(bad, xk)


def _reference_colours(xg: EdgeColouring, xh: EdgeColouring) -> tuple[int, ...]:
    # the construction spelled out edge by edge from the product's origin
    # numbering: the larger palette is shifted by a rotation per copy, the
    # other placed after the rotations
    eta, beta = xg.palette.size, xh.palette.size
    swapped = eta < beta
    match_graph = xg.graph if swapped else xh.graph
    y, d = brooks_colouring(match_graph), brooks_bound(match_graph)
    modulus = max(eta, beta, d)
    _, origin = cartesian_product(xg.graph, xh.graph)
    out = []
    for o in origin:
        factor, edge, copy = origin_edge(o, xg.graph, xh.graph)
        x = xg if factor == "g" else xh
        rank = colour_of(x, *edge)
        if (factor == "g") == swapped:
            out.append(modulus + rank)
        else:
            out.append((rank + y[copy]) % modulus)
    return tuple(out)


def test_compose_matches_the_classifier_construction():
    cases = [
        (solved(cycle(5)), solved(path(4))),
        (solved(path(4)), solved(cycle(5))),  # swapped
        (solved(grid(3, 4)), solved(complete(4))),
    ]
    pool = [g for g in connected_graphs_up_to(5) if g.n >= 2]
    rng = random.Random(5)
    while len(cases) < 30:
        g, h = rng.choice(pool), rng.choice(pool)
        xg, xh = solved(g), solved(h)
        if max(xg.palette.size, xh.palette.size) > 1:
            cases.append((xg, xh))
    for xg, xh in cases:
        x = compose(xg, xh)
        assert x.graph == cartesian_product(xg.graph, xh.graph)[0]
        assert x.colours == _reference_colours(xg, xh)


def test_brooks_shifts_fit_in_any_acyclic_palette():
    # why compose pads its modulus only for the four-cycle: the matching
    # factor's vertex colouring uses at most lower_bound colours, and every
    # acyclic palette of that factor, hence eta, has at least that many;
    # K2 needs 2 > 1, which only matters when eta = 1 too, for K2 x K2
    for h in connected_graphs_up_to(7):
        if h.n < 2:
            continue
        used, bound = len(set(brooks_colouring(h))), lower_bound(h)
        assert used <= bound or (h == complete(2) and (used, bound) == (2, 1))


def _count_checks(monkeypatch, *names: str) -> list:
    """Record every check_acyclic call made through the named modules."""
    checked = []
    for name in names:
        # the package re-exports the function `compose` under the module's
        # name, so the module is looked up by its import path
        module = importlib.import_module(f"boxcolour.{name}")
        real = module.check_acyclic

        def counting(x, real=real):
            checked.append(x)
            return real(x)

        monkeypatch.setattr(module, "check_acyclic", counting)
    return checked


def test_compose_many_verifies_each_colouring_once(monkeypatch):
    # three factors are checked once each, and the final output once; the
    # intermediate fold is not checked, since the final fold relabels it
    # injectively into every copy (compose's module docstring)
    checked = _count_checks(monkeypatch, "compose")
    p3 = path(3)
    xp = solved(p3)
    x = compose_many([xp] * 3)
    assert len(checked) == 4
    assert checked[-1] is x
    # a cyclic factor later in the fold is still rejected
    c4 = cycle(4)
    bad = EdgeColouring.single_family(c4, [0, 1, 1, 0], 2)
    with pytest.raises(ValueError, match="acyclic"):
        compose_many([xp, xp, bad])


def test_compose_many_folds_left():
    _, xk = one_edge()
    x = compose_many([xk] * 3)
    assert x.graph == hypercube(3)
    assert check_acyclic(x) is None
    assert colours_used(x) <= 4
    with pytest.raises(ValueError):
        compose_many([xk])


_SMALL_FACTORS = [g for g in connected_graphs_up_to(4) if g.n >= 2]
_SMALL_WITNESSES = {g: solved(g) for g in _SMALL_FACTORS}


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(_SMALL_FACTORS), min_size=2, max_size=4))
# a left fold meets the two single edges first and pays the four-cycle's
# third colour: 6, 9 and 5 colours against 5, 8 and 4
@example([complete(2), complete(2), complete(3)])
@example([complete(2)] * 3 + [complete(4)])
@example([complete(2), complete(2), _SMALL_FACTORS[1]])  # the path on 3 vertices
def test_compose_many_in_every_order_keeps_the_graph_and_the_sum_of_palettes(factors):
    for order in set(itertools.permutations(factors)):
        xs = [_SMALL_WITNESSES[g] for g in order]
        x = compose_many(xs)
        assert x.graph == reduce(lambda a, b: cartesian_product(a, b)[0], order)
        palettes = [w.palette.size for w in xs]
        budget = len(xs) + 1 if max(palettes) == 1 else sum(palettes)
        assert colours_used(x) <= budget


# the connected graphs on 2 to 4 vertices, keyed by their corpus labelling
_SMALL_NAMES = {
    ((0, 1),): "K2",
    ((0, 1), (0, 2)): "P3",
    ((0, 1), (0, 2), (1, 2)): "K3",
    ((0, 1), (0, 2), (0, 3)): "K1,3",
    ((0, 1), (0, 2), (1, 3)): "P4",
    ((0, 1), (0, 2), (0, 3), (1, 3)): "paw",
    ((0, 1), (0, 2), (1, 3), (2, 3)): "C4",
    ((0, 1), (0, 2), (0, 3), (1, 3), (2, 3)): "diamond",
    ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)): "K4",
}

# the pairs whose product needs all of a'(G) + a'(H) colours
_TIGHT_PAIRS = {
    ("K2", "P3"), ("K2", "K3"), ("K2", "K1,3"), ("K2", "P4"), ("K2", "paw"),
    ("K2", "C4"), ("K2", "diamond"),
    ("P3", "P3"), ("P3", "K3"), ("P3", "K1,3"), ("P3", "P4"), ("P3", "paw"),
    ("K3", "P4"),
    ("K1,3", "K1,3"), ("K1,3", "P4"), ("K1,3", "paw"),
    ("P4", "P4"), ("P4", "paw"),
    ("paw", "paw"),
}


def test_pairs_up_to_four_vertices_sit_between_the_bounds():
    # the n <= 4 atlas: lower_bound <= aci <= compose <= a'(G) + a'(H) on all
    # 45 unordered pairs of connected factors with 2 to 4 vertices; K2 x K2,
    # the four-cycle the paper excludes, takes 3 colours against 1 + 1.
    # compose's palette is max(eta, shifts) + beta, every rank used, and its
    # modulus exceeds eta only on K2 x K2
    assert [_SMALL_NAMES[g.edges] for g in _SMALL_FACTORS] == list(_SMALL_NAMES.values())
    pairs = list(itertools.combinations_with_replacement(_SMALL_FACTORS, 2))
    assert len(pairs) == 45
    tight = set()
    for g, h in pairs:
        xg, xh = _SMALL_WITNESSES[g], _SMALL_WITNESSES[h]
        product = cartesian_product(g, h)[0]
        result = exact_aci(product)
        assert not result.exhausted and result.nodes <= 2_655
        x = compose(xg, xh)
        used = colours_used(x)
        paper = xg.palette.size + xh.palette.size
        beta, eta = sorted((xg.palette.size, xh.palette.size))
        # the smaller palette is the matching factor's, h's on a tie
        shifts = len(set(brooks_colouring(g if xg.palette.size < xh.palette.size else h)))
        assert x.palette == ColourPalette(max(eta, shifts), beta)
        assert used == x.palette.size
        assert (shifts > eta) == (g == h == complete(2))
        assert lower_bound(product) <= result.aci <= used
        if g == h == complete(2):
            assert (result.aci, used, paper) == (3, 3, 2)
            continue
        assert used <= paper
        if result.aci == paper:
            tight.add((_SMALL_NAMES[g.edges], _SMALL_NAMES[h.edges]))
    assert tight == _TIGHT_PAIRS


def test_compose_many_two_factors_reduces_to_compose():
    p3 = path(3)
    xp = solved(p3)
    assert compose_many([xp, xp]) == compose(xp, xp)


def test_three_fold_path_power_is_degree_tight():
    p3 = path(3)
    xp = solved(p3)
    x = compose_many([xp] * 3)
    assert x.graph.max_degree == 6
    assert colours_used(x) == 6
    assert check_acyclic(x) is None


def test_mixed_tight_factors_hit_the_degree_sum():
    # both factors have index equal to max degree, so the product does too
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    p4 = path(4)
    xs, xp = solved(star), solved(p4)
    assert colours_used(xs) == 3 and colours_used(xp) == 2
    x = compose(xp, xs)
    assert x.graph.max_degree == 5
    assert colours_used(x) == 5
    assert check_acyclic(x) is None


def test_hypercube_colouring_family():
    x1 = hypercube_colouring(1)
    assert colours_used(x1) == 1 and x1.graph == hypercube(1)
    for d in range(2, 7):
        x = hypercube_colouring(d)
        assert x.graph == hypercube(d)
        assert colours_used(x) == d + 1
        assert check_acyclic(x) is None
    with pytest.raises(ValueError):
        hypercube_colouring(0)


def test_random_pairs_hold_the_bound():
    pool = [g for g in connected_graphs_up_to(5) if g.n >= 2]
    rng = random.Random(11)
    for _ in range(40):
        g, h = rng.choice(pool), rng.choice(pool)
        xg, xh = solved(g), solved(h)
        if max(xg.palette.size, xh.palette.size) <= 1:
            continue
        x = compose(xg, xh)
        assert check_acyclic(x) is None
        assert colours_used(x) <= xg.palette.size + xh.palette.size


def test_the_four_cycle_is_checked_only_where_it_is_handed_out(monkeypatch):
    # compose checks its two factors and the four-cycle's colouring it
    # returns, as for any other pair
    checked = _count_checks(monkeypatch, "compose")
    _, x = one_edge()
    result = compose(x, x)
    assert checked == [x, x, result]


@pytest.mark.parametrize("d", range(1, 9))
def test_hypercube_colouring_checks_each_factor_and_the_cube_once(monkeypatch, d):
    # d single edges and the final cube: the four-cycle the first fold
    # returns is relabelled into every later fold, so it is not checked
    # on its own (module docstring); the 1-cube is the single edge itself
    checked = _count_checks(monkeypatch, "compose")
    x = hypercube_colouring(d)
    assert len(checked) == (1 if d == 1 else d + 1)
    assert checked[-1] is x


def test_exact_aci_checks_each_colouring_once_per_boundary(monkeypatch):
    # Q6 factorises as K2 x Q5 down to K2 x K2, the four-cycle; neither the
    # factors' witnesses nor the inner folds are checked, since each reaches
    # the returned colouring through an injective relabelling, and compose's
    # own entry checks are not on this path
    checked = _count_checks(monkeypatch, "solver", "compose")
    k5p2 = cartesian_product(complete(5), path(2))[0]
    for g, aci in [(hypercube(6), 7), (grid(8, 8), 4), (k5p2, 6)]:
        checked.clear()
        result = exact_aci(g)
        assert result.aci == aci and result.tactic == "factor"
        assert len(checked) == 1 and checked[0] is result.witness
    # an exhausted solve's first-fit colourings, the factors' included, go
    # unchecked until one of them is the witness exact_aci returns
    c5c7 = cartesian_product(cycle(5), cycle(7))[0]
    k7k2 = cartesian_product(complete(7), path(2))[0]
    exhausted = [(complete(7), 5, "greedy"), (c5c7, 50, "factor"), (k7k2, 5, "greedy")]
    for g, max_nodes, tactic in exhausted:
        checked.clear()
        result = exact_aci(g, SearchBudget(max_nodes=max_nodes, max_time=60))
        assert result.exhausted and result.tactic == tactic
        assert len(checked) == 1 and checked[0] is result.witness


def _count_calls(monkeypatch, function) -> list:
    """Record every call of `function` made through any module of the
    package that holds it under its own name."""
    calls = []

    def counting(*args):
        calls.append(args)
        return function(*args)

    for name in ("colouring", "graphs", "vertex_colouring", "compose", "factor", "solver"):
        module = importlib.import_module(f"boxcolour.{name}")
        if getattr(module, function.__name__, None) is function:
            monkeypatch.setattr(module, function.__name__, counting)
    return calls


def test_no_fold_checks_its_shifts(monkeypatch):
    # brooks_colouring's shifts are proper and within brooks_bound by proof
    # (vertex_colouring's docstring), so no fold checks them or counts its
    # budget; the one check_acyclic per boundary is unchanged
    xp = solved(path(3))
    proper = _count_calls(monkeypatch, check_proper_vertex)
    budgets = _count_calls(monkeypatch, brooks_bound)
    checked = _count_checks(monkeypatch, "solver", "compose")
    runs = [
        (lambda: hypercube_colouring(11), 12),
        (lambda: compose_many([xp] * 3), 4),
        (lambda: exact_aci(hypercube(6)), 1),
    ]
    for build, checks in runs:
        checked.clear()
        build()
        assert (len(proper), len(budgets), len(checked)) == (0, 0, checks)


def _all_zero(g: Graph) -> list[int]:
    return [0] * g.n


def test_a_defect_in_an_inner_fold_fails_the_final_check(monkeypatch):
    # with every shift 0, the copies of the shifted factor coincide and two
    # of them close a two-coloured 4-cycle with the matching edges between
    # them; only the first fold is broken, and the defect surfaces in the
    # final fold's colouring
    module = importlib.import_module("boxcolour.compose")
    real = module.brooks_colouring
    calls = []

    def first_call_broken(g):
        calls.append(g)
        return _all_zero(g) if len(calls) == 1 else real(g)

    monkeypatch.setattr(module, "brooks_colouring", first_call_broken)
    p3 = path(3)
    xp = solved(p3)
    with pytest.raises(RuntimeError, match="failed verification"):
        compose_many([xp] * 3)
    assert len(calls) == 2


def test_a_defect_in_exact_acis_innermost_fold_fails_its_one_check(monkeypatch):
    # Q4 folds K2 x K2, then K2 x Q2 and K2 x Q3; with all-zero shifts the
    # four-cycle gets 2 colours, a two-coloured cycle, below its lower
    # bound, so no level is searched and each later fold relabels it
    module = importlib.import_module("boxcolour.compose")
    real = module.brooks_colouring
    calls = []

    def first_call_broken(g):
        calls.append(g)
        return _all_zero(g) if len(calls) == 1 else real(g)

    monkeypatch.setattr(module, "brooks_colouring", first_call_broken)
    checked = _count_checks(monkeypatch, "solver", "compose")
    with pytest.raises(RuntimeError, match="solver produced an invalid colouring"):
        exact_aci(hypercube(4))
    assert len(calls) == 3
    assert len(checked) == 1 and checked[0].graph == hypercube(4)


def test_a_defective_construction_never_leaves_compose_or_exact_aci(monkeypatch):
    module = importlib.import_module("boxcolour.compose")
    monkeypatch.setattr(module, "brooks_colouring", _all_zero)
    p3 = path(3)
    xp = solved(p3)
    with pytest.raises(RuntimeError, match="failed verification"):
        compose(xp, xp)
    with pytest.raises(RuntimeError, match="invalid colouring"):
        exact_aci(hypercube(4))

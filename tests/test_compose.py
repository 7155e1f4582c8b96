import importlib
import random

import pytest

from bruteforce import colour_index, colour_of, is_primed
from boxcolour.colouring import (
    EdgeColouring,
    VertexColouring,
    check_acyclic,
    colours_used,
    primed,
    unprimed,
)
from boxcolour.compose import (
    C4ProductError,
    ComposeInput,
    compose,
    compose_many,
    compose_or_solve,
    hypercube_colouring,
)
from boxcolour.corpus import connected_graphs_up_to
from boxcolour.graphs import (
    GEdge,
    Graph,
    HEdge,
    cartesian_product,
    complete,
    cycle,
    grid,
    hypercube,
    path,
)
from boxcolour.solver import exact_aci, lower_bound
from boxcolour.vertex_colouring import brooks_bound, brooks_colouring


def one_edge() -> tuple[Graph, EdgeColouring]:
    k2 = complete(2)
    return k2, EdgeColouring.single_family(k2, [0], 1)


def solved(g: Graph) -> EdgeColouring:
    return exact_aci(g).witness


def test_shifts_are_mutually_non_fixing():
    # compose rotates palette ranks by vertex colours: two rotations with
    # different shifts disagree at every rank
    eta, d = 4, 3
    for i in range(d):
        for k in range(d):
            if i != k:
                for j in range(eta):
                    assert (j + i) % eta != (j + k) % eta


def test_two_single_edges_are_rejected():
    k2, x = one_edge()
    with pytest.raises(C4ProductError) as err:
        compose(ComposeInput(k2, x, k2, x))
    assert "4-cycle" in str(err.value)


def test_compose_or_solve_falls_back_to_the_four_cycle():
    k2, x = one_edge()
    product, result = compose_or_solve(ComposeInput(k2, x, k2, x))
    assert (product.n, product.m) == (4, 4)
    assert colours_used(result) == 3
    assert check_acyclic(result) is None


def test_cube_from_cycle_and_edge():
    c4 = cycle(4)
    k2, xk = one_edge()
    product, x = compose(ComposeInput(c4, solved(c4), k2, xk))
    assert product == cartesian_product(c4, k2)[0]
    assert check_acyclic(x) is None
    assert colours_used(x) <= 4


def test_grid_from_paths_is_degree_tight():
    p3 = path(3)
    product, x = compose(ComposeInput(p3, solved(p3), p3, solved(p3)))
    assert product == grid(3, 3)
    assert check_acyclic(x) is None
    assert colours_used(x) == 4 == product.max_degree


def test_restrictions_match_the_factors():
    # the first factor's palette (3) dominates, so roles stay in caller order
    g, h = cycle(5), path(4)
    xg, xh = solved(g), solved(h)
    product, x = compose(ComposeInput(g, xg, h, xh))
    _, kinds = cartesian_product(g, h)
    y = brooks_colouring(h)  # the shifts compose uses
    eta = xg.palette.size
    for kind, c in zip(kinds, x.colours):
        if isinstance(kind, HEdge):
            # every copy of an h-edge keeps its own colour, primed
            assert is_primed(c)
            assert colour_index(c) == xh.palette.rank(colour_of(xh, *kind.h_edge))
        else:
            # a copy of g at vertex v is g's colouring rotated by y(v)
            assert not is_primed(c)
            base = xg.palette.rank(colour_of(xg, *kind.g_edge))
            assert colour_index(c) == (base + y.colours[kind.h_vertex]) % eta


def test_swap_when_second_palette_is_larger():
    k2, xk = one_edge()
    c4 = cycle(4)
    product, x = compose(ComposeInput(k2, xk, c4, solved(c4)))
    # output stays in caller order
    assert product == cartesian_product(k2, c4)[0]
    assert check_acyclic(x) is None
    assert colours_used(x) <= 4
    # after the swap the caller's g-edges are the matching family
    _, kinds = cartesian_product(k2, c4)
    for kind, c in zip(kinds, x.colours):
        assert is_primed(c) == isinstance(kind, GEdge)


def test_factor_validation():
    k2, xk = one_edge()
    p3 = path(3)
    with pytest.raises(ValueError, match="connected"):
        compose(ComposeInput(Graph(2, []), EdgeColouring.single_family(Graph(2, []), [], 1), k2, xk))
    with pytest.raises(ValueError, match="two vertices"):
        compose(ComposeInput(Graph(1, []), EdgeColouring.single_family(Graph(1, []), [], 1), k2, xk))
    with pytest.raises(ValueError, match="different graph"):
        compose(ComposeInput(p3, xk, k2, xk))
    # proper but bichromatic factor colouring
    c4 = cycle(4)
    bad = EdgeColouring.single_family(c4, [0, 1, 1, 0], 2)
    with pytest.raises(ValueError, match="acyclic"):
        compose(ComposeInput(c4, bad, k2, xk))


def _reference_colours(inp: ComposeInput) -> tuple[int, ...]:
    # the construction spelled out edge by edge from the public classifier:
    # the larger palette is shifted by a rotation per copy, the other primed
    eta, beta = inp.g_colouring.palette.size, inp.h_colouring.palette.size
    swapped = eta < beta
    match_graph = inp.g if swapped else inp.h
    y, d = brooks_colouring(match_graph), brooks_bound(match_graph)
    modulus = max(eta, beta, d)
    _, kinds = cartesian_product(inp.g, inp.h)
    out = []
    for kind in kinds:
        if isinstance(kind, GEdge):
            x, edge, copy = inp.g_colouring, kind.g_edge, kind.h_vertex
        else:
            x, edge, copy = inp.h_colouring, kind.h_edge, kind.g_vertex
        rank = x.palette.rank(colour_of(x, *edge))
        if isinstance(kind, GEdge) == swapped:
            out.append(primed(rank))
        else:
            out.append(unprimed((rank + y.colours[copy]) % modulus))
    return tuple(out)


def test_compose_matches_the_classifier_construction():
    cases = [
        ComposeInput(cycle(5), solved(cycle(5)), path(4), solved(path(4))),
        ComposeInput(path(4), solved(path(4)), cycle(5), solved(cycle(5))),  # swapped
        ComposeInput(grid(3, 4), solved(grid(3, 4)), complete(4), solved(complete(4))),
    ]
    pool = [g for g in connected_graphs_up_to(5) if g.n >= 2]
    rng = random.Random(5)
    while len(cases) < 30:
        g, h = rng.choice(pool), rng.choice(pool)
        xg, xh = solved(g), solved(h)
        if max(xg.palette.size, xh.palette.size) > 1:
            cases.append(ComposeInput(g, xg, h, xh))
    for inp in cases:
        product, x = compose(inp)
        assert product == cartesian_product(inp.g, inp.h)[0]
        assert x.colours == _reference_colours(inp)


def test_brooks_shifts_fit_in_any_acyclic_palette():
    # why compose never pads its modulus: the matching factor's vertex
    # colouring uses at most lower_bound colours, and every acyclic palette
    # of that factor, hence eta, has at least that many; K2 needs 2 > 1,
    # which only matters when eta = 1 too, the four-cycle case
    for h in connected_graphs_up_to(7):
        if h.n < 2:
            continue
        used, bound = brooks_colouring(h).count(), lower_bound(h)
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
    _, x = compose_many([(p3, xp)] * 3)
    assert len(checked) == 4
    assert checked[-1] is x
    # a cyclic factor later in the fold is still rejected
    c4 = cycle(4)
    bad = EdgeColouring.single_family(c4, [0, 1, 1, 0], 2)
    with pytest.raises(ValueError, match="acyclic"):
        compose_many([(p3, xp), (p3, xp), (c4, bad)])


def test_compose_many_folds_left():
    k2, xk = one_edge()
    product, x = compose_many([(k2, xk)] * 3)
    assert (product.n, product.m) == (8, 12)
    assert check_acyclic(x) is None
    assert colours_used(x) <= 4
    with pytest.raises(ValueError):
        compose_many([(k2, xk)])


def test_compose_many_two_factors_reduces_to_compose():
    p3 = path(3)
    xp = solved(p3)
    via_many = compose_many([(p3, xp), (p3, xp)])
    via_one = compose(ComposeInput(p3, xp, p3, xp))
    assert via_many[0] == via_one[0]
    assert via_many[1] == via_one[1]


def test_three_fold_path_power_is_degree_tight():
    p3 = path(3)
    xp = solved(p3)
    product, x = compose_many([(p3, xp)] * 3)
    assert product.max_degree == 6
    assert colours_used(x) == 6
    assert check_acyclic(x) is None


def test_mixed_tight_factors_hit_the_degree_sum():
    # both factors have index equal to max degree, so the product does too
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    p4 = path(4)
    xs, xp = solved(star), solved(p4)
    assert colours_used(xs) == 3 and colours_used(xp) == 2
    product, x = compose(ComposeInput(p4, xp, star, xs))
    assert product.max_degree == 5
    assert colours_used(x) == 5
    assert check_acyclic(x) is None


def test_hypercube_colouring_family():
    cube1, x1 = hypercube_colouring(1)
    assert colours_used(x1) == 1 and cube1 == hypercube(1)
    for d in range(2, 7):
        cube, x = hypercube_colouring(d)
        assert cube == hypercube(d)
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
        product, x = compose_or_solve(ComposeInput(g, xg, h, xh))
        assert check_acyclic(x) is None
        assert colours_used(x) <= xg.palette.size + xh.palette.size


def test_exact_aci_checks_each_colouring_once_per_boundary(monkeypatch):
    # Q6 factorises as K2 x Q5 down to K2 x K2, the four-cycle, which the
    # search solves: 4 K2 witnesses and 1 four-cycle witness checked by the
    # search, and 1 check per level Q3..Q6 of the composed colouring mapped
    # onto the input; compose's own entry checks are not on this path
    checked = _count_checks(monkeypatch, "search", "solver", "compose")
    result = exact_aci(hypercube(6))
    assert result.aci == 7 and result.tactic == "factor"
    assert sorted(x.graph.n for x in checked) == [2, 2, 2, 2, 4, 8, 16, 32, 64]
    assert checked[-1] is result.witness


def _all_zero(g: Graph) -> VertexColouring:
    return VertexColouring(g, [0] * g.n)


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
        compose_many([(p3, xp)] * 3)
    assert len(calls) == 2


def test_a_defective_construction_never_leaves_compose_or_exact_aci(monkeypatch):
    module = importlib.import_module("boxcolour.compose")
    monkeypatch.setattr(module, "brooks_colouring", _all_zero)
    p3 = path(3)
    xp = solved(p3)
    with pytest.raises(RuntimeError, match="failed verification"):
        compose(ComposeInput(p3, xp, p3, xp))
    with pytest.raises(RuntimeError, match="invalid colouring"):
        exact_aci(hypercube(4))

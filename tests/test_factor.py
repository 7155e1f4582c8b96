import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from bruteforce import isomorphic, origin_edge
from boxcolour.colouring import check_acyclic
from boxcolour.corpus import connected_graphs_up_to
from boxcolour.factor import _verified_split, delta_star, factorise
from boxcolour.graphs import (
    Graph,
    cartesian_product,
    complete,
    cycle,
    grid,
    hypercube,
    path,
)
from boxcolour.solver import _admits_product, _search, exact_aci, lower_bound

FACTORS = [g for g in connected_graphs_up_to(5) if g.n >= 2]
SMALL = [g for g in connected_graphs_up_to(6) if g.n >= 2]


def _relabel(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def _product(g: Graph, h: Graph) -> Graph:
    return cartesian_product(g, h)[0]


def _rebuilds(g: Graph, f) -> bool:
    rebuilt = {tuple(sorted((f.vertex[u], f.vertex[v]))) for u, v in g.edges}
    return len(rebuilt) == g.m and rebuilt == set(_product(f.g, f.h).edges)


def test_delta_star_splits_exactly_the_small_products():
    graphs = [g for g in connected_graphs_up_to(7) if g.n >= 2]
    assert len(graphs) == 995
    # None is no split: some vertex's edges all fell into one class
    split = [g for g in graphs if len(set(delta_star(g) or ())) > 1]
    k2 = path(2)
    products = [_product(k2, k2), _product(path(3), k2), _product(cycle(3), k2)]
    assert len(split) == 3
    assert all(any(isomorphic(g, p) for p in products) for g in split)


def test_delta_star_classes_on_known_products():
    assert len(set(delta_star(hypercube(6)))) == 6
    assert len(set(delta_star(grid(5, 7)))) == 2
    assert len(set(delta_star(_product(_product(cycle(5), cycle(7)), path(3))))) == 3


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FACTORS), st.sampled_from(FACTORS), st.randoms(use_true_random=False))
def test_coordinates_rebuild_relabelled_products(g, h, rng):
    unrelabelled, origin = cartesian_product(g, h)
    product = _relabel(unrelabelled, rng)
    f = factorise(product)
    assert f is not None
    assert f.g.n * f.h.n == product.n and sorted(f.vertex) == list(range(product.n))
    assert _rebuilds(product, f)
    # the cross-pair lemma: no class of delta* holds a g-edge and an h-edge
    classes = delta_star(unrelabelled)
    assert classes is not None
    side = {}
    for c, o in zip(classes, origin):
        factor = origin_edge(o, g, h)[0]
        assert side.setdefault(c, factor) == factor


def test_factorise_stops_at_the_first_fused_vertex_of_a_complete_bipartite_graph():
    # K_{a,a} has the counts of K2 x K_a, but any two neighbours of a vertex
    # share a >= 3 common neighbours, so all its edges join one class and
    # delta* stops at the first vertex
    for a in range(3, 81):
        g = Graph(2 * a, [(i, a + j) for i in range(a) for j in range(a)])
        start = time.perf_counter()
        assert factorise(g) is None
        elapsed = time.perf_counter() - start
        assert delta_star(g) is None
    # the last graph timed is K80,80
    assert elapsed < 0.5


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(SMALL), st.data())
def test_verifier_accepts_a_split_only_when_it_describes_the_graph(g, data):
    first = data.draw(st.lists(st.booleans(), min_size=g.m, max_size=g.m))
    f = _verified_split(g, first)
    assert f is None or _rebuilds(g, f)


def _prism_minus_a_triangle_edge() -> tuple[Graph, list[bool]]:
    triangle, k2 = cycle(3), path(2)
    prism, origin = cartesian_product(triangle, k2)
    in_triangle = [origin_edge(o, triangle, k2)[0] == "g" for o in origin]
    drop = in_triangle.index(True)
    keep = [i for i in range(prism.m) if i != drop]
    return Graph(6, [prism.edges[i] for i in keep]), [in_triangle[i] for i in keep]


@pytest.mark.parametrize(
    "g, first",
    [
        # a triangle 0-1-3 with 2 pendant at 0: both sides have two
        # components, but 0 and 1 share both coordinates
        (Graph(4, [(0, 1), (0, 2), (0, 3), (1, 3)]), [False, False, True, True]),
        # the prism's own split, one triangle edge short: the coordinates
        # are a bijection, the edge count is not n_g * m_h + n_h * m_g
        _prism_minus_a_triangle_edge(),
    ],
    ids=["shared-coordinates", "edge-missing"],
)
def test_verifier_rejects_wrong_splits(g, first):
    assert _verified_split(g, first) is None


def _petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + spokes + inner)


def _minus_one_edge(g: Graph) -> Graph:
    return Graph(g.n, g.edges[1:])


@pytest.mark.parametrize(
    "g",
    [
        complete(8),
        _petersen(),
        Graph(5, [(a, b) for a in (0, 1) for b in (2, 3, 4)]),
        Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]),
        _minus_one_edge(grid(4, 5)),
        _minus_one_edge(_product(cycle(5), cycle(7))),
        _minus_one_edge(hypercube(4)),
    ],
    ids=["K8", "Petersen", "K2,3", "two-triangles", "grid4x5-e", "C5xC7-e", "Q4-e"],
)
def test_factoriser_rejects_non_products(g):
    assert factorise(g) is None


def test_four_cycle_is_coloured_by_the_factor_tactic():
    # the theorem leaves K2 x K2 out, but the padded modulus colours it with
    # 2 + 1 colours, its lower bound: one node per single-edge factor, and
    # no search over the product, which would place 4
    c4 = cycle(4)
    f = factorise(c4)
    assert f is not None and f.g.m == f.h.m == 1
    r = exact_aci(c4)
    assert (r.aci, r.tactic, r.nodes) == (3, "factor", 2)
    assert lower_bound(c4) == 3 and _search(c4).nodes == 4


@pytest.mark.parametrize(
    "g", [grid(25, 25), hypercube(6), hypercube(8)], ids=["grid25x25", "Q6", "Q8"]
)
def test_exact_on_relabelled_products_needs_no_product_search(g):
    rng = random.Random(g.n)
    lower = lower_bound(g)
    for _ in range(20):
        h = _relabel(g, rng)
        t0 = time.perf_counter()
        r = exact_aci(h)
        elapsed = time.perf_counter() - t0
        # the composed colouring meets the lower bound, so the product
        # itself is never searched
        assert (r.aci, r.lower, r.upper, r.tactic) == (lower, lower, lower, "factor")
        assert r.witness.graph == h and check_acyclic(r.witness) is None
        assert elapsed < 1.0


def test_every_product_of_small_connected_factors_admits_a_product():
    for g in FACTORS:
        for h in FACTORS:
            assert _admits_product(_product(g, h)), (g.edges, h.edges)


@pytest.mark.parametrize(
    "g",
    [
        *(hypercube(d) for d in range(2, 7)),
        grid(8, 8),
        _product(cycle(5), cycle(7)),
        _product(complete(5), path(2)),
    ],
    ids=["Q2", "Q3", "Q4", "Q5", "Q6", "grid8x8", "C5xC7", "K5xP2"],
)
def test_known_products_admit_a_product_under_relabelling(g):
    rng = random.Random(g.n)
    assert _admits_product(g)
    assert _admits_product(_relabel(g, rng))


def test_factorise_finds_nothing_where_the_counts_rule_a_product_out():
    graphs = connected_graphs_up_to(7)
    admitted = [g for g in graphs if _admits_product(g)]
    assert len(admitted) == 11
    assert all(factorise(g) is None for g in graphs if not _admits_product(g))

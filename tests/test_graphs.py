import tracemalloc

import pytest
from hypothesis import given, strategies as st

from boxcolour.compose import hypercube_colouring
from boxcolour.graphs import (
    MAX_EDGES,
    MAX_VERTICES,
    GEdge,
    Graph,
    HEdge,
    cartesian_product,
    classify,
    complete,
    cycle,
    grid,
    hypercube,
    is_connected,
    path,
    product_coords,
)
from boxcolour.graphs import _check_dimension, _check_order, _check_size

from bruteforce import product_edge_endpoints, product_vertex


def test_graph_normalizes_and_dedups_edges():
    g = Graph(3, [(2, 1), (1, 2), (0, 1)])
    assert g.edges == ((0, 1), (1, 2))
    assert g.m == 2


@pytest.mark.parametrize(
    "build, args",
    [
        (Graph, (10**10, [])),
        (Graph, (MAX_VERTICES + 1, [(0, 1)])),
        (path, (10**10,)),
        (complete, (10**10,)),
        (hypercube, (21,)),
        (hypercube, (10**10,)),
        (cartesian_product, (path(2048), path(1024))),
        (grid, (MAX_VERTICES, 2)),
        # within the vertex limit, past the edge limit
        (complete, (MAX_VERTICES,)),
        (hypercube, (19,)),
        (hypercube, (20,)),
        (hypercube_colouring, (20,)),
        (cartesian_product, (complete(200), complete(200))),
    ],
    ids=[
        "Graph", "Graph-limit+1", "path", "complete", "Q21", "Q(10^10)", "product", "grid",
        "complete-edges", "Q19-edges", "Q20-edges", "Q20-colouring-edges", "product-edges",
    ],
)
def test_vertex_limit_is_checked_before_allocating(build, args):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="limit"):
            build(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


def test_vertex_limit_itself_is_allowed():
    _check_order(MAX_VERTICES)
    with pytest.raises(ValueError, match="limit"):
        _check_order(MAX_VERTICES + 1)
    _check_size(MAX_EDGES)
    with pytest.raises(ValueError, match="limit"):
        _check_size(MAX_EDGES + 1)
    # the largest cube within the edge limit: 18 * 2^17 edges
    _check_dimension(18)
    with pytest.raises(ValueError, match="limit"):
        _check_dimension(19)


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(2, [(0, 2)])
    with pytest.raises(ValueError):
        Graph(2, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(-1, [])


def test_graph_is_immutable():
    g = path(3)
    with pytest.raises(AttributeError):
        g.n = 5


def test_adjacency_accessors():
    g = Graph(4, [(0, 1), (1, 2), (1, 3)])
    assert g.neighbours(1) == (0, 2, 3)
    assert g.degree(1) == 3 and g.degree(0) == 1
    assert g.max_degree == 3
    assert g.has_edge(2, 1) and not g.has_edge(0, 2)
    assert g.edges[g.edge_index(3, 1)] == (1, 3)
    with pytest.raises(KeyError):
        g.edge_index(0, 3)
    # out-of-range vertices are not edges either
    assert not g.has_edge(-1, 3) and not g.has_edge(3, -1) and not g.has_edge(1, 4)
    with pytest.raises(KeyError):
        g.edge_index(4, 1)
    # incident edge indices point back at the vertex
    for ei in g.incident_edges(1):
        assert 1 in g.edges[ei]


def test_equality_is_structural():
    assert Graph(2, [(0, 1)]) != Graph(3, [(0, 1)])


def test_generators_shapes():
    assert path(1).m == 0
    p = path(5)
    assert (p.n, p.m, p.max_degree) == (5, 4, 2)
    c = cycle(6)
    assert (c.n, c.m) == (6, 6) and all(c.degree(v) == 2 for v in range(6))
    k = complete(5)
    assert (k.n, k.m, k.max_degree) == (5, 10, 4)
    g = grid(3, 4)
    assert (g.n, g.m, g.max_degree) == (12, 17, 4)
    q = hypercube(4)
    assert (q.n, q.m) == (16, 32) and all(q.degree(v) == 4 for v in range(16))


def test_generator_bounds():
    with pytest.raises(ValueError):
        path(0)
    with pytest.raises(ValueError):
        cycle(2)
    with pytest.raises(ValueError):
        complete(0)
    with pytest.raises(ValueError):
        hypercube(0)


def test_hypercube_edges_flip_one_bit():
    q = hypercube(3)
    assert q.m == 12
    assert all((u ^ v).bit_count() == 1 for u, v in q.edges)


def test_product_vertex_indexing_roundtrip():
    for gi in range(4):
        for hi in range(3):
            idx = product_vertex(gi, hi, 3)
            assert product_coords(idx, 3) == (gi, hi)


def test_product_size_formula():
    for g, h in [(path(3), cycle(4)), (complete(4), path(2)), (cycle(5), cycle(3))]:
        p, kinds = cartesian_product(g, h)
        assert p.n == g.n * h.n
        assert p.m == g.m * h.n + h.m * g.n
        assert len(kinds) == p.m


def test_product_classifier_matches_edges():
    g, h = path(3), cycle(4)
    p, kinds = cartesian_product(g, h)
    g_edges = 0
    for edge, kind in zip(p.edges, kinds):
        assert product_edge_endpoints(kind, h.n) == edge
        if isinstance(kind, GEdge):
            g_edges += 1
            assert kind.g_edge in g.edges
        else:
            assert isinstance(kind, HEdge)
            assert kind.h_edge in h.edges
    assert g_edges == g.m * h.n


def test_product_of_two_edges_is_a_four_cycle():
    k2 = complete(2)
    p, _ = cartesian_product(k2, k2)
    assert (p.n, p.m) == (4, 4)
    assert all(p.degree(v) == 2 for v in range(4))
    assert is_connected(p)


def test_product_edges_decode_to_factor_edges():
    # each product edge fixes one coordinate and is a factor edge in the other
    g, h = path(3), cycle(4)
    p, _ = cartesian_product(g, h)
    for u, v in p.edges:
        (gu, hu), (gv, hv) = product_coords(u, h.n), product_coords(v, h.n)
        assert (gu == gv and h.has_edge(hu, hv)) or (hu == hv and g.has_edge(gu, gv))


def test_grid_equals_path_product():
    p, _ = cartesian_product(path(3), path(4))
    assert grid(3, 4) == p


def test_product_commutes_up_to_coordinate_swap():
    g, h = path(3), cycle(4)
    gh, _ = cartesian_product(g, h)
    hg, _ = cartesian_product(h, g)
    assert sorted(gh.degrees) == sorted(hg.degrees)

    def swap(v: int) -> int:
        gi, hi = product_coords(v, h.n)
        return product_vertex(hi, gi, g.n)

    # the coordinate swap must carry edges to edges, one to one
    mapped = {tuple(sorted((swap(u), swap(v)))) for u, v in gh.edges}
    assert mapped == set(hg.edges)


def test_product_is_associative_on_small_triples():
    triples = [
        (path(2), path(3), cycle(3)),
        (cycle(4), path(2), path(2)),
        (complete(3), path(3), path(2)),
    ]
    for a, b, c in triples:
        left, _ = cartesian_product(cartesian_product(a, b)[0], c)
        right, _ = cartesian_product(a, cartesian_product(b, c)[0])
        assert left.n == right.n
        assert left.m == right.m
        assert sorted(left.degrees) == sorted(right.degrees)


def test_product_connected_iff_both_factors_are():
    pool = [
        path(3),
        cycle(4),
        Graph(2, []),
        Graph(4, [(0, 1), (2, 3)]),
        Graph(3, [(1, 2)]),
    ]
    for g in pool:
        for h in pool:
            p, _ = cartesian_product(g, h)
            assert is_connected(p) == (is_connected(g) and is_connected(h))


def test_product_with_a_point_is_the_graph_itself():
    g = cycle(5)
    p, kinds = cartesian_product(g, Graph(1, []))
    assert p == g
    assert all(isinstance(k, GEdge) for k in kinds)


def test_is_connected():
    assert is_connected(path(7))
    assert not is_connected(Graph(2, []))
    assert is_connected(Graph(1, []))
    with pytest.raises(ValueError):
        is_connected(Graph(0, []))


def test_classify():
    k = classify(complete(4))
    assert k.is_complete and k.is_regular and not k.is_odd_cycle
    c5 = classify(cycle(5))
    assert c5.is_odd_cycle and c5.is_regular and not c5.is_complete
    c6 = classify(cycle(6))
    assert not c6.is_odd_cycle and c6.is_regular
    p = classify(path(4))
    assert not p.is_regular and p.max_degree == 2
    # K3 is both complete and an odd cycle
    k3 = classify(complete(3))
    assert k3.is_complete and k3.is_odd_cycle
    with pytest.raises(ValueError):
        classify(Graph(1, []))
    with pytest.raises(ValueError):
        classify(Graph(3, [(0, 1)]))


@given(st.integers(2, 8), st.data())
def test_degree_sum_is_twice_edge_count(n, data):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    g = Graph(n, chosen)
    assert sum(g.degrees) == 2 * g.m
    for u, v in g.edges:
        assert v in g.neighbours(u) and u in g.neighbours(v)


@given(st.integers(1, 5), st.integers(1, 5))
def test_product_degrees_add(ng, nh):
    g, h = path(ng), complete(nh)
    p, _ = cartesian_product(g, h)
    for gi in range(g.n):
        for hi in range(h.n):
            idx = product_vertex(gi, hi, h.n)
            assert p.degree(idx) == g.degree(gi) + h.degree(hi)

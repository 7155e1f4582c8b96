import copy
import pickle
import sys
import tracemalloc

import networkx as nx
import pytest
from hypothesis import example, given, strategies as st

from boxcolour import solver
from boxcolour.colouring import (
    BichromaticCycle,
    ColourPalette,
    EdgeColouring,
    NotProper,
    check_acyclic,
)
from boxcolour.compose import hypercube_colouring
from boxcolour.corpus import connected_graphs_up_to
from boxcolour.factor import factorise
from boxcolour.graphs import (
    MAX_EDGES,
    MAX_VERTICES,
    Graph,
    Record,
    adjacency,
    cartesian_product,
    classify,
    complete,
    cycle,
    grid,
    hypercube,
    is_connected,
    path,
)
from boxcolour.graphs import _check_dimension, _check_order, _check_size
from boxcolour.io import format_edge_list, graph_file_matches, parse_edge_list
from boxcolour.solver import AciResult, SearchBudget, exact_aci

from bruteforce import (
    indexes as reference_indexes,
    origin_endpoints,
    product as reference_product,
    product_coords,
    product_vertex,
)


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


@pytest.mark.parametrize("n, edges, named", [
    (3, [(0.5, 1), (1, 2)], "0.5"),
    (3, [(0, 1), (1, 2.0)], "2.0"),
    (3, [(True, 2), (0, 1)], "True"),
    # in input order, though a later edge is out of range
    (3, [(0, 1), (False, 2), (0, 5)], "False"),
    (3, [(0, 1), ("1", 2)], "'1'"),
    (3.0, [(0, 1)], "3.0"),
])
def test_graph_rejects_vertices_that_are_not_ints(n, edges, named):
    with pytest.raises(ValueError, match=f"must be an integer, got {named}$"):
        Graph(n, edges)


def test_graph_is_immutable():
    g = path(3)
    with pytest.raises(AttributeError):
        g.n = 5


def test_adjacency_accessors():
    g = Graph(4, [(3, 1), (1, 2), (0, 1)])
    assert g.degrees == (1, 3, 1, 1) and g.max_degree == 3
    # neighbours in increasing order, whatever order the edges came in
    assert adjacency(g) == ((1,), (0, 2, 3), (1,), (1,))
    assert adjacency(Graph(2, [])) == ((), ()) and adjacency(Graph(0, [])) == ()
    # built afresh on each call, not stored on the graph
    assert adjacency(g) is not adjacency(g)


def test_equality_is_structural():
    assert Graph(2, [(0, 1)]) != Graph(3, [(0, 1)])


def test_generators_shapes():
    assert path(1).m == 0
    p = path(5)
    assert (p.n, p.m, p.max_degree) == (5, 4, 2)
    c = cycle(6)
    assert (c.n, c.m) == (6, 6) and c.degrees == (2,) * 6
    k = complete(5)
    assert (k.n, k.m, k.max_degree) == (5, 10, 4)
    g = grid(3, 4)
    assert (g.n, g.m, g.max_degree) == (12, 17, 4)
    q = hypercube(4)
    assert (q.n, q.m) == (16, 32) and q.degrees == (4,) * 16


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
        p, origin = cartesian_product(g, h)
        assert p.n == g.n * h.n
        assert p.m == g.m * h.n + h.m * g.n
        assert len(origin) == p.m


@st.composite
def _small_graphs(draw) -> Graph:
    n = draw(st.integers(0, 5))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return Graph(n, draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])


@given(_small_graphs(), _small_graphs())
@example(cycle(5), Graph(1, []))
@example(Graph(1, []), path(4))
@example(Graph(3, []), complete(4))
@example(path(3), Graph(2, []))
def test_cartesian_product_matches_the_definition(g, h):
    # the product is the definition's, every edge's origin names it, each
    # product edge has exactly one origin, and no factor index is built
    p, origin = cartesian_product(g, h)
    assert p == reference_product(g, h)
    assert sorted(origin) == list(range(p.m))
    assert [origin_endpoints(o, g, h) for o in origin] == list(p.edges)
    assert _built(g) == _built(h) == []


def test_product_of_two_edges_is_a_four_cycle():
    k2 = complete(2)
    p, _ = cartesian_product(k2, k2)
    assert (p.n, p.m) == (4, 4)
    assert p.degrees == (2, 2, 2, 2)
    assert is_connected(p)


def test_product_edges_decode_to_factor_edges():
    # each product edge fixes one coordinate and is a factor edge in the other
    g, h = path(3), cycle(4)
    p, _ = cartesian_product(g, h)
    for u, v in p.edges:
        (gu, hu), (gv, hv) = product_coords(u, h.n), product_coords(v, h.n)
        assert (gu == gv and (hu, hv) in h.edges) or (hu == hv and (gu, gv) in g.edges)


def test_grid_equals_path_product():
    p, _ = cartesian_product(path(3), path(4))
    assert grid(3, 4) == p


@pytest.mark.parametrize("m, n", [(0, 3), (3, 0), (0, 0), (-2, -3), (-1, 4)])
def test_a_grid_with_a_side_below_one_is_refused_by_name(m, n):
    # two negative sides have a positive product, which the vertex-count
    # check alone would pass on to `path`
    with pytest.raises(ValueError, match=f"^grid {m}x{n} needs at least one row and one column$"):
        grid(m, n)


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
    p, origin = cartesian_product(g, Graph(1, []))
    assert p == g
    # every edge is g's own, inside the one copy of g
    assert origin == list(range(g.m))


@given(st.integers(1, 10), st.sets(st.tuples(st.integers(0, 9), st.integers(0, 9))))
@example(7, {(i, i + 1) for i in range(6)})
@example(2, set())
@example(1, set())
@example(10, set())
def test_is_connected(n, pairs):
    edges = [(u, v) for u, v in pairs if u < v < n]
    G = nx.Graph()
    G.add_nodes_from(range(n))  # isolated vertices count as components
    G.add_edges_from(edges)
    assert is_connected(Graph(n, edges)) == nx.is_connected(G)
    with pytest.raises(ValueError):
        is_connected(Graph(0, []))


class Pair(Record):
    """Two fields and no checks of their own."""

    __slots__ = ("edge", "vertex")


class TwinPair(Record):
    """Pair's twin: the same fields, so equal values in a different class."""

    __slots__ = ("edge", "vertex")


# class, fields in order, defaults, repr, field values that raise ValueError
_RECORDS = [
    (Pair, {"edge": (0, 1), "vertex": 2}, {}, "Pair(edge=(0, 1), vertex=2)", []),
    (TwinPair, {"edge": (0, 1), "vertex": 2}, {}, "TwinPair(edge=(0, 1), vertex=2)", []),
    (
        ColourPalette,
        {"g_size": 1, "h_size": 0},
        {"h_size": 0},
        "ColourPalette(g_size=1, h_size=0)",
        [{"g_size": -1}, {"h_size": -1}],
    ),
    (
        SearchBudget,
        {"max_nodes": 5, "max_time": 1.5},
        {"max_nodes": 100_000_000, "max_time": 60.0},
        "SearchBudget(max_nodes=5, max_time=1.5)",
        [{"max_nodes": 0}, {"max_time": 0.0}, {"max_nodes": -1}, {"max_time": float("nan")}],
    ),
    (
        NotProper,
        {"vertex": 1, "edge1": (0, 1), "edge2": (1, 2)},
        {},
        "NotProper(vertex=1, edge1=(0, 1), edge2=(1, 2))",
        [],
    ),
    (
        BichromaticCycle,
        {"colour_a": "0", "colour_b": "0'", "cycle": (0, 1, 2, 3)},
        {},
        "BichromaticCycle(colour_a='0', colour_b=\"0'\", cycle=(0, 1, 2, 3))",
        [],
    ),
    (
        AciResult,
        {"witness": None, "nodes": 3, "seconds": 0.5, "lower": 2, "upper": 2,
         "tactic": "search"},
        {},
        "AciResult(witness=None, nodes=3, seconds=0.5, lower=2, upper=2, tactic='search')",
        [],
    ),
]


@pytest.mark.parametrize(
    "cls, fields, defaults, text, invalid", _RECORDS, ids=[r[0].__name__ for r in _RECORDS]
)
def test_records_behave_as_frozen_dataclasses(cls, fields, defaults, text, invalid):
    values = tuple(fields.values())
    r = cls(*values)
    assert tuple(getattr(r, name) for name in fields) == values
    assert cls(**fields) == r
    assert cls(*values[:1], **dict(list(fields.items())[1:])) == r
    assert hash(cls(**fields)) == hash(r) and {r: "found"}[cls(**fields)] == "found"
    assert repr(r) == text
    first = next(iter(fields))
    assert cls(**{**fields, first: 99}) != r
    assert r != values and r != None  # noqa: E711
    assert copy.copy(r) == r

    required = {name: v for name, v in fields.items() if name not in defaults}
    filled = cls(**required)
    for name, v in defaults.items():
        assert getattr(filled, name) == v
    with pytest.raises(TypeError):
        cls(*values, 0)
    with pytest.raises(TypeError):
        cls(*values, **{first: 0})
    with pytest.raises(TypeError):
        cls(**fields, unknown=0)
    if not defaults:
        with pytest.raises(TypeError):
            cls(*values[:-1])

    for name in fields:
        with pytest.raises(AttributeError):
            setattr(r, name, 99)
        with pytest.raises(AttributeError):
            delattr(r, name)
    with pytest.raises(AttributeError):
        r.extra = 1
    assert tuple(getattr(r, name) for name in fields) == values

    for bad in invalid:
        with pytest.raises(ValueError):
            cls(**{**fields, **bad})


def test_records_of_different_classes_are_never_equal():
    assert Pair((0, 1), 2) != TwinPair((0, 1), 2)
    assert TwinPair((0, 1), 2) != Pair((0, 1), 2)
    assert len({Pair((0, 1), 2), TwinPair((0, 1), 2)}) == 2
    assert pickle.loads(pickle.dumps(Pair((0, 1), 2))) == Pair((0, 1), 2)


@pytest.mark.parametrize(
    "make",
    [lambda: path(3), lambda: exact_aci(hypercube(4))],
    ids=["Graph", "AciResult"],
)
def test_graphs_and_colourings_copy_and_pickle(make):
    # an AciResult carries a Graph inside its EdgeColouring witness
    value = make()
    for clone in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
        twin = clone(value)
        assert twin == value and type(twin) is type(value)


def test_classify():
    # (max degree, regular)
    assert classify(complete(4)) == (3, True)
    assert classify(cycle(5)) == (2, True)
    assert classify(path(4)) == (2, False)
    assert classify(Graph(4, [(0, 1), (0, 2), (0, 3)])) == (3, False)
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
    assert adjacency(g) == reference_indexes(g)[1]


# ---------------------------------------------------------------------------
# Degrees counted on first use, adjacency built only where it is walked


def _built(g: Graph) -> list[str]:
    """The index slots that are set: a graph stores its degrees alone."""
    return [name for name in ("_degrees",) if hasattr(g, name)]


def _count_indexes(monkeypatch) -> tuple[list, list]:
    """Record every graph whose adjacency any library module builds, and
    every graph whose degrees are counted, in two lists."""
    built, counted = [], []
    real_count = Graph._count_degrees

    def building(g):
        built.append(g)
        return adjacency(g)

    def counting(g):
        counted.append(g)
        return real_count(g)

    for name, module in list(sys.modules.items()):
        if name.startswith("boxcolour.") and hasattr(module, "adjacency"):
            monkeypatch.setattr(module, "adjacency", building)
    monkeypatch.setattr(Graph, "_count_degrees", counting)
    return built, counted


def test_reading_comparing_checking_and_writing_build_no_index(tmp_path, monkeypatch):
    g = grid(6, 7)
    x = hypercube_colouring(4)
    built, _ = _count_indexes(monkeypatch)
    fresh = [g, x.graph, Graph(5, [(3, 4), (0, 1)]), parse_edge_list(format_edge_list(g))]
    # a graph file matched by its text, as verify --graph does, and one parsed
    written = tmp_path / "q4.el"
    written.write_text(format_edge_list(x.graph))
    head, *rows = format_edge_list(x.graph).splitlines()
    shuffled = tmp_path / "q4-shuffled.el"
    shuffled.write_text("\n".join([head] + rows[::-1]) + "\n")
    assert graph_file_matches(written, "edgelist", x.graph)
    assert graph_file_matches(shuffled, "edgelist", x.graph)
    for h in fresh:
        assert h == h and hash(h) == hash(Graph._from_sorted(h.n, h.edges))
        for clone in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
            assert clone(h) == h and _built(clone(h)) == []
        assert format_edge_list(h).count("\n") == h.m + 1
        assert repr(h) == f"Graph(n={h.n}, m={h.m})"
    assert check_acyclic(x) is None
    # a cycle's witness is read off the classes' mates, and connectivity off a
    # union-find over the sorted edges
    rejected = EdgeColouring.single_family(cycle(6), [0, 1, 1, 0, 1, 0], 2)
    assert isinstance(check_acyclic(rejected), BichromaticCycle)
    # an improper colouring's clash comes from one pass over the edges:
    # vertices 3 and 5 each meet one colour twice, and 3 is reported
    clashing = EdgeColouring.single_family(cycle(6), [0, 1, 1, 0, 0, 1], 2)
    assert check_acyclic(clashing) == NotProper(3, (2, 3), (3, 4))
    fresh += [rejected.graph, clashing.graph]
    assert [is_connected(h) for h in fresh] == [True, True, False, True, True, True]
    assert all(_built(h) == [] for h in fresh) and built == []


# each accessor, with the index slots its first use sets: degrees are
# counted and stored, adjacency built and handed back
_DEGREES = ["_degrees"]
_ACCESSORS = [
    (lambda g: g.degrees, _DEGREES),
    (lambda g: g.max_degree, _DEGREES),
    (adjacency, []),
]


@given(st.integers(2, 8), st.data(), st.sampled_from(range(len(_ACCESSORS))))
def test_the_first_accessor_builds_only_its_own_indexes(n, data, which):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    g = Graph(n, data.draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True)))
    assert _built(g) == []
    read, names = _ACCESSORS[which]
    read(g)
    assert _built(g) == names
    # the degrees are then counted on their own first read
    assert g.degrees == reference_indexes(g)[0] and _built(g) == _DEGREES


# "_adj" and "_incident" named the adjacency and incidence indexes a graph
# once stored; they are refused like any other name
@pytest.mark.parametrize("built", [False, True])
@pytest.mark.parametrize("name", ["n", "edges", "degrees", "_degrees", "_adj", "_incident",
                                  "m", "extra"])
def test_no_attribute_can_be_assigned(name, built):
    g = path(4)
    if built:
        g.degrees
        adjacency(g)
    with pytest.raises(AttributeError):
        setattr(g, name, ())
    with pytest.raises(AttributeError):
        delattr(g, name)
    assert g == path(4) and _built(g) == (_DEGREES if built else [])


def test_products_build_no_factor_index(monkeypatch):
    # the product reads its factors' sorted edges; hypercube_colouring
    # builds adjacency only for K2, which each fold colours with
    # brooks_colouring, never for an intermediate cube, and counts no other
    # graph's degrees
    built, counted = _count_indexes(monkeypatch)
    assert grid(40, 40).m == 2 * 40 * 39
    assert built == [] and counted == []
    x = hypercube_colouring(11)
    assert x.graph == hypercube(11)
    assert set(built) == {complete(2)} and counted == [complete(2)]


def test_scan_builds_adjacency_only_for_the_graphs_it_factorises_or_peels(monkeypatch):
    # the solver reads a corpus graph's degrees, its sorted edges and its
    # edge count; only factorise, and the lower bound's peel where the
    # counts let a subgraph raise the bound, build its adjacency
    built, _ = _count_indexes(monkeypatch)
    factorised, peeled = [], []

    def counting(g, deadline):
        factorised.append(g)
        return factorise(g, deadline)

    def peeling(g, bound):
        peeled.append(g)
        return real_peel(g, bound)

    real_peel = solver._peeled
    monkeypatch.setattr(solver, "factorise", counting)
    monkeypatch.setattr(solver, "_peeled", peeling)
    graphs = connected_graphs_up_to(7)
    for g in graphs:
        exact_aci(g)
    ids = {id(g) for g in graphs}
    # the vertex, edge and degree counts leave 11 of the 996 graphs to
    # factorise and 344 to peel
    assert len(factorised) == 11 and all(id(g) in ids for g in factorised)
    assert len(peeled) == 344 and all(id(g) in ids for g in peeled)
    built_ids = sorted(id(g) for g in built if id(g) in ids)
    assert built_ids == sorted(map(id, factorised + peeled))


@given(st.integers(1, 5), st.integers(1, 5))
def test_product_degrees_add(ng, nh):
    g, h = path(ng), complete(nh)
    p, _ = cartesian_product(g, h)
    for gi in range(g.n):
        for hi in range(h.n):
            idx = product_vertex(gi, hi, h.n)
            assert p.degrees[idx] == g.degrees[gi] + h.degrees[hi]

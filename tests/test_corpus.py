import gc
import itertools
import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from bruteforce import connected_graphs_up_to as reference_corpus, isomorphic
from boxcolour import corpus
from boxcolour.corpus import _colour_fields, _isomorphic, connected_graphs, connected_graphs_up_to
from boxcolour.graphs import Graph, cycle, hypercube, is_connected


def test_known_class_counts():
    assert [len(connected_graphs(n)) for n in range(1, 8)] == [1, 1, 2, 6, 21, 112, 853]


def test_everything_is_connected_with_the_right_order():
    for n in range(1, 7):
        for g in connected_graphs(n):
            assert g.n == n
            assert is_connected(g)


def test_classes_are_pairwise_non_isomorphic():
    for n in range(1, 6):
        reps = connected_graphs(n)
        for a, b in itertools.combinations(reps, 2):
            assert not isomorphic(a, b), (a.edges, b.edges)


def test_counts_match_the_networkx_atlas():
    # the atlas lists every graph on up to 7 vertices, one per class
    per_n = {n: 0 for n in range(1, 8)}
    for G in nx.graph_atlas_g()[1:]:
        n = G.number_of_nodes()
        if 1 <= n <= 7 and nx.is_connected(G):
            per_n[n] += 1
    assert per_n == {n: len(connected_graphs(n)) for n in range(1, 8)}


def test_classes_cover_the_atlas_up_to_five():
    # every connected atlas graph is isomorphic to exactly one of ours
    from boxcolour.graphs import Graph

    for n in range(2, 6):
        reps = connected_graphs(n)
        for G in nx.graph_atlas_g()[1:]:
            if G.number_of_nodes() != n or not nx.is_connected(G):
                continue
            g = Graph(n, list(G.edges()))
            hits = sum(1 for rep in reps if isomorphic(g, rep))
            assert hits == 1


def test_same_graphs_in_the_same_order_as_the_reference():
    # same classes, same labellings, same order: the scan CSV and the
    # solver's node count on every row depend on all three
    ours = [(g.n, g.edges) for g in connected_graphs_up_to(7)]
    assert len(ours) == 996
    assert ours == [(h.n, h.edges) for h in reference_corpus(7)]


def _bitmask_isomorphic(a: Graph, b: Graph) -> bool:
    # the corpus's test, on inputs built here from the two graphs
    def colours(g):
        return [(g.degree(v), tuple(sorted(g.degree(w) for w in g.neighbours(v))))
                for v in range(g.n)]

    back = [[w for w in a.neighbours(v) if w < v] for v in range(a.n)]
    adj_b = tuple(sum(1 << w for w in b.neighbours(v)) for v in range(b.n))
    classes: dict = {}
    for v, c in enumerate(colours(b)):
        classes.setdefault(c, []).append(v)
    return _isomorphic(back, colours(a), adj_b, classes)


def test_isomorphism_test_separates_classes_that_share_a_key():
    # up to 7 vertices the bucket key alone separates the classes, so the
    # corpus never needs a negative answer there; the cube and the Wagner
    # graph are cubic and triangle-free on 8 vertices, so they share a key
    wagner = Graph(8, list(cycle(8).edges) + [(i, i + 4) for i in range(4)])
    family = []
    for g in (hypercube(3), wagner):
        for seed in range(3):
            perm = list(range(8))
            random.Random(seed).shuffle(perm)
            family.append(Graph(8, [(perm[u], perm[v]) for u, v in g.edges]))
    for a, b in itertools.product(family, repeat=2):
        assert _bitmask_isomorphic(a, b) == isomorphic(a, b)
    assert _bitmask_isomorphic(family[0], family[1])
    assert not _bitmask_isomorphic(family[0], family[3])


@st.composite
def _graphs(draw):
    n = draw(st.integers(1, 12))
    pairs = list(itertools.combinations(range(n), 2))
    density = draw(st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return n, [e for e in pairs if rng.random() < density]


@given(_graphs())
@settings(max_examples=200, deadline=None)
def test_int_colours_bucket_vertices_as_the_degree_tuples_do(graph):
    # the corpus colours a vertex by one int; two vertices must get equal
    # ints exactly when their (degree, sorted neighbour degrees) are equal
    n, edges = graph
    nbrs = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    deg = [len(a) for a in nbrs]
    top, unit = _colour_fields(n)
    ints = [deg[v] << top | sum(unit[deg[w]] for w in nbrs[v]) for v in range(n)]
    tuples = [(deg[v], tuple(sorted(deg[w] for w in nbrs[v]))) for v in range(n)]
    for u, v in itertools.combinations(range(n), 2):
        assert (ints[u] == ints[v]) == (tuples[u] == tuples[v]), (u, v, edges)


def test_int_colours_are_injective_on_every_neighbourhood_up_to_ten_vertices():
    # a vertex's int depends only on its neighbours' degrees, a multiset of
    # at most n - 1 values in 1..n-1; every such multiset gets its own int,
    # including those the random graphs above are unlikely to draw
    for n in range(1, 11):
        top, unit = _colour_fields(n)
        neighbourhoods = [
            around
            for k in range(n)
            for around in itertools.combinations_with_replacement(range(1, n), k)
        ]
        ints = {len(around) << top | sum(unit[d] for d in around) for around in neighbourhoods}
        assert len(ints) == len(neighbourhoods)


def test_enumeration_leaves_no_cyclic_garbage():
    # every object the enumeration makes is freed by reference counting
    saved = dict(corpus._CACHE)
    enabled = gc.isenabled()
    try:
        corpus._CACHE.clear()
        gc.collect()
        gc.disable()
        connected_graphs_up_to(6)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
        corpus._CACHE.clear()
        corpus._CACHE.update(saved)


def test_up_to_concatenates_in_order():
    out = connected_graphs_up_to(4)
    assert [g.n for g in out] == [1, 2, 3, 3, 4, 4, 4, 4, 4, 4]


def test_rejects_nonpositive():
    with pytest.raises(ValueError):
        connected_graphs(0)


@pytest.mark.parametrize("max_n", [0, -3])
def test_corpus_up_to_rejects_nonpositive(max_n):
    # an empty corpus would read as a scan that found nothing to report
    with pytest.raises(ValueError, match="at least one vertex"):
        connected_graphs_up_to(max_n)

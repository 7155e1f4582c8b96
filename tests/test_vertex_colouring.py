import itertools
import random

import pytest
from hypothesis import given, seed, settings, strategies as st

from boxcolour.colouring import check_proper_vertex
from boxcolour.corpus import connected_graphs_up_to
from boxcolour.graphs import Graph, complete, cycle, path
from boxcolour.vertex_colouring import brooks_bound, brooks_colouring

from bruteforce import indexes


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + spokes + inner)


def two_cubic_blobs_with_a_bridge() -> Graph:
    # K4 minus an edge plus an apex, twice, joined by a bridge: 3-regular
    # with a cut vertex at each bridge endpoint
    def blob(base):
        a, b, c, d, e = range(base, base + 5)
        return [(a, b), (a, c), (a, d), (b, c), (b, d), (c, e), (d, e)]

    return Graph(10, blob(0) + blob(5) + [(4, 9)])


def test_brooks_bound_examples():
    # max degree, plus one when regular
    assert brooks_bound(complete(2)) == 2
    assert brooks_bound(cycle(5)) == 3
    assert brooks_bound(path(4)) == 2
    assert brooks_bound(cycle(6)) == 3
    assert brooks_bound(complete(5)) == 5
    assert brooks_bound(petersen()) == 4
    with pytest.raises(ValueError):
        brooks_bound(Graph(1, []))
    with pytest.raises(ValueError):
        brooks_bound(Graph(4, [(0, 1), (2, 3)]))


def test_complete_graphs_get_identity():
    y = brooks_colouring(complete(4))
    assert y== [0, 1, 2, 3]


def test_even_cycle_alternates():
    y = brooks_colouring(cycle(6))
    assert y== [0, 1, 0, 1, 0, 1]


def test_odd_cycle_needs_three():
    g = cycle(7)
    y = brooks_colouring(g)
    assert len(set(y)) == 3
    assert check_proper_vertex(g, y) is None


def test_k2():
    assert brooks_colouring(complete(2)) == [0, 1]


def test_petersen_within_three():
    g = petersen()
    y = brooks_colouring(g)
    assert check_proper_vertex(g, y) is None
    assert len(set(y)) <= 3


def test_regular_two_connected_case():
    # 4-regular circulant: not complete, no cut vertex; the greedy's root
    # has full degree, so it may take the fifth colour the budget allows
    n = 8
    edges = [(i, (i + 1) % n) for i in range(n)] + [(i, (i + 2) % n) for i in range(n)]
    g = Graph(n, edges)
    assert g.degrees == (4,) * n
    y = brooks_colouring(g)
    assert check_proper_vertex(g, y) is None
    assert len(set(y)) <= brooks_bound(g) == 5


def test_regular_with_cut_vertex_case():
    g = two_cubic_blobs_with_a_bridge()
    assert g.degrees == (3,) * g.n
    y = brooks_colouring(g)
    assert check_proper_vertex(g, y) is None
    assert len(set(y)) <= 3


def test_bipartite_regular_case():
    g = Graph(6, [(i, 3 + j) for i in range(3) for j in range(3)])  # K3,3
    y = brooks_colouring(g)
    assert check_proper_vertex(g, y) is None
    assert len(set(y)) <= 3


def test_normalization_starts_at_vertex_zero():
    for g in connected_graphs_up_to(5):
        if g.n < 2:
            continue
        y = brooks_colouring(g)
        assert y[0] == 0
        # colours appear in first-use order
        seen = []
        for c in y:
            if c not in seen:
                seen.append(c)
        assert seen == sorted(seen)


def test_determinism():
    g = petersen()
    assert brooks_colouring(g) == brooks_colouring(g)


def _chromatic_number(g: Graph) -> int:
    # independent exhaustive check, small graphs only
    adj = indexes(g)[1]

    def feasible(k: int) -> bool:
        colours = [-1] * g.n

        def place(v: int) -> bool:
            if v == g.n:
                return True
            taken = {colours[w] for w in adj[v] if colours[w] >= 0}
            for c in range(k):
                if c not in taken:
                    colours[v] = c
                    if place(v + 1):
                        return True
            colours[v] = -1
            return False

        return place(0)

    k = 1
    while not feasible(k):
        k += 1
    return k


def test_bound_dominates_chromatic_number_up_to_six():
    for g in connected_graphs_up_to(6):
        if g.n < 2:
            continue
        assert _chromatic_number(g) <= brooks_bound(g)


def _proper_within_bound(g: Graph) -> None:
    # the two facts brooks_colouring proves and no longer checks itself
    y = brooks_colouring(g)
    assert check_proper_vertex(g, y) is None
    assert len(set(y)) <= brooks_bound(g)


def test_whole_corpus_within_bound():
    graphs = [g for g in connected_graphs_up_to(8) if g.n >= 2]
    assert len(graphs) == 12_112
    for g in graphs:
        _proper_within_bound(g)


@st.composite
def _connected_graphs(draw, max_n=40):
    # a random spanning tree, so the graph is connected, plus edges drawn at
    # one of several densities, on shuffled vertex names
    n = draw(st.integers(2, max_n))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.0, 0.05, 0.2, 0.5, 1.0]))
    name = list(range(n))
    rng.shuffle(name)
    tree = [(name[v], name[rng.randrange(v)]) for v in range(1, n)]
    extra = [e for e in itertools.combinations(range(n), 2) if rng.random() < density]
    return Graph(n, tree + extra)


@seed(1975)
@settings(max_examples=300, deadline=None)
@given(_connected_graphs())
def test_random_connected_graphs_within_bound(g):
    _proper_within_bound(g)


def test_trivial_or_disconnected_graphs_are_refused():
    for g in (Graph(1, []), Graph(2, []), Graph(4, [(0, 1), (2, 3)])):
        with pytest.raises(ValueError):
            brooks_colouring(g)


def test_brooks_number_still_holds_on_non_regular_graphs():
    # off regular graphs the budget is max degree, Brooks' number: the root
    # of least degree has a free colour left over
    count = 0
    for g in connected_graphs_up_to(7):
        delta = g.max_degree
        if g.n < 2 or all(d == delta for d in g.degrees):
            continue
        count += 1
        y = brooks_colouring(g)
        assert check_proper_vertex(g, y) is None
        assert len(set(y)) <= delta
    assert count == 995 - 15  # the 15 regular graphs on 2 to 7 vertices

import random

import pytest
from hypothesis import given, strategies as st

from boxcolour.colouring import (
    BichromaticCycle,
    ColourPalette,
    EdgeColouring,
    NotProper,
    VertexColouring,
    canonical_cycle,
    check_acyclic,
    check_proper_vertex,
    colour_label,
    colour_order_key,
    colours_used,
    parse_colour_label,
    primed,
    unprimed,
)
from boxcolour.graphs import Graph, complete, cycle, grid, hypercube, path

from bruteforce import (
    bichromatic_cycle,
    colour_index,
    colour_of,
    is_primed,
    palette_colours,
    proper,
)


def test_colour_encoding_roundtrip():
    for i in range(5):
        assert not is_primed(unprimed(i)) and colour_index(unprimed(i)) == i
        assert is_primed(primed(i)) and colour_index(primed(i)) == i
    assert colour_label(unprimed(3)) == "3"
    assert colour_label(primed(3)) == "3'"
    assert parse_colour_label("3") == unprimed(3)
    assert parse_colour_label(" 3' ") == primed(3)
    with pytest.raises(ValueError):
        parse_colour_label("-1")
    with pytest.raises(ValueError):
        parse_colour_label("x")


def test_palette_order_puts_unprimed_first():
    p = ColourPalette(3, 2)
    assert p.size == 5
    order = palette_colours(p)
    assert order == (unprimed(0), unprimed(1), unprimed(2), primed(0), primed(1))
    assert [p.rank(c) for c in order] == [0, 1, 2, 3, 4]
    assert sorted(order, key=colour_order_key) == list(order)
    assert unprimed(2) in p and primed(1) in p
    assert unprimed(3) not in p and primed(2) not in p
    with pytest.raises(ValueError):
        p.rank(primed(2))
    with pytest.raises(ValueError):
        ColourPalette(-1, 0)


def test_edge_colouring_validation():
    c4 = cycle(4)
    with pytest.raises(ValueError):
        EdgeColouring(c4, [0, 0, 0], ColourPalette(1))
    with pytest.raises(ValueError):
        EdgeColouring(c4, [unprimed(2)] * 4, ColourPalette(2))
    x = EdgeColouring.single_family(c4, [0, 1, 1, 0], 2)
    with pytest.raises(AttributeError):
        x.colours = ()


def test_from_edge_map_requires_total_map():
    g = path(3)
    full = {(0, 1): unprimed(0), (1, 2): unprimed(1)}
    x = EdgeColouring.from_edge_map(g, full, ColourPalette(2))
    assert colour_of(x, 1, 0) == unprimed(0)
    with pytest.raises(ValueError):
        EdgeColouring.from_edge_map(g, {(0, 1): unprimed(0)}, ColourPalette(2))


def test_colouring_json_roundtrip():
    c4 = cycle(4)
    x = EdgeColouring(
        c4,
        [unprimed(0), primed(0), primed(1), unprimed(1)],
        ColourPalette(2, 2),
    )
    data = x.to_json_dict()
    assert data["palette"] == {"g": 2, "h": 2}
    assert [row[2] for row in data["edges"]] == ["0", "0'", "1'", "1"]
    assert EdgeColouring.from_json_dict(data) == x


def test_colours_used_counts_distinct():
    g = path(4)
    x = EdgeColouring.single_family(g, [0, 1, 0], 5)
    assert colours_used(x) == 2
    assert x.distinct_colours() == (unprimed(0), unprimed(1))


def test_check_proper_edge_finds_shared_vertex():
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    x = EdgeColouring.single_family(star, [0, 0, 1], 2)
    bad = check_acyclic(x)
    assert isinstance(bad, NotProper)
    assert bad.vertex == 0
    assert {bad.edge1, bad.edge2} == {(0, 1), (0, 2)}
    ok = EdgeColouring.single_family(star, [0, 1, 2], 3)
    assert check_acyclic(ok) is None


def test_find_bichromatic_cycle_on_even_cycles():
    for n in (4, 6, 8):
        c = cycle(n)
        # alternate around the cycle walk; with sorted edge storage this is
        # colour-by-parity of the walk position
        walk = list(range(n))
        col = {}
        for i in range(n):
            u, v = walk[i], walk[(i + 1) % n]
            col[(min(u, v), max(u, v))] = unprimed(i % 2)
        x = EdgeColouring.from_edge_map(c, col, ColourPalette(2))
        found = check_acyclic(x)
        assert isinstance(found, BichromaticCycle)
        assert found.cycle == tuple(range(n))
        assert {found.colour_a, found.colour_b} == {unprimed(0), unprimed(1)}


def test_find_bichromatic_cycle_accepts_acyclic():
    c5 = cycle(5)
    x = EdgeColouring.single_family(c5, [0, 1, 1, 0, 2], 3)
    assert proper(x) and check_acyclic(x) is None


def test_check_acyclic_orders_violations():
    g = path(3)
    x = EdgeColouring.single_family(g, [0, 0], 1)
    assert isinstance(check_acyclic(x), NotProper)
    k4 = complete(4)
    # three perfect matchings: proper but every pair of them is a 4-cycle
    matching = {(0, 1): 0, (2, 3): 0, (0, 2): 1, (1, 3): 1, (0, 3): 2, (1, 2): 2}
    x = EdgeColouring.from_edge_map(
        k4, {e: unprimed(c) for e, c in matching.items()}, ColourPalette(3)
    )
    assert proper(x)
    bad = check_acyclic(x)
    assert isinstance(bad, BichromaticCycle)
    # smallest colour pair is reported first
    assert (bad.colour_a, bad.colour_b) == (unprimed(0), unprimed(1))
    assert bad.cycle[0] == 0 and len(bad.cycle) == 4


def test_cycle_witness_is_canonical():
    assert canonical_cycle([2, 3, 0, 1]) == (0, 1, 2, 3)
    assert canonical_cycle([0, 3, 2, 1]) == (0, 1, 2, 3)
    assert canonical_cycle([5, 4, 6]) == (4, 5, 6)


def test_violation_json_shapes():
    np = NotProper(1, (0, 1), (1, 2))
    assert np.to_json_dict() == {
        "kind": "not_proper",
        "vertex": 1,
        "edges": [[0, 1], [1, 2]],
    }
    bc = BichromaticCycle(unprimed(0), primed(0), (0, 1, 2, 3))
    data = bc.to_json_dict()
    assert data["kind"] == "bichromatic_cycle"
    assert data["colours"] == ["0", "0'"]
    assert data["cycle"] == [0, 1, 2, 3]


def test_vertex_colouring_checks():
    g = path(3)
    y = VertexColouring(g, [0, 1, 0])
    assert check_proper_vertex(y) is None
    assert y.count() == 2
    bad = VertexColouring(g, [0, 0, 1])
    assert check_proper_vertex(bad) == (0, 1)
    with pytest.raises(ValueError):
        VertexColouring(g, [0, 1])
    with pytest.raises(ValueError):
        VertexColouring(g, [0, -1, 0])


@given(st.integers(2, 9), st.data())
def test_proper_path_colourings_are_acyclic(n, data):
    # a path has no cycles at all, so properness is the whole story
    g = path(n)
    colours = [data.draw(st.integers(0, 3)) for _ in range(g.m)]
    x = EdgeColouring.single_family(g, colours, 4)
    if proper(x):
        assert check_acyclic(x) is None
    else:
        assert isinstance(check_acyclic(x), NotProper)


@given(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))
def test_two_colour_subgraphs_of_c4_catch_every_cycle(a, b, c, d):
    # on the 4-cycle a bichromatic cycle exists iff opposite edges pair up
    x = EdgeColouring.single_family(cycle(4), [a, b, c, d], 3)
    if not proper(x):
        return
    found = check_acyclic(x)
    # edges (0,1),(2,3) are opposite, as are (0,3),(1,2)
    expects = a == d and b == c and a != b
    assert (found is not None) == expects


def _revalidate_witness(g, x, bad):
    # re-check the witness against the raw graph and colouring by hand,
    # independent of the detection code
    if isinstance(bad, NotProper):
        assert bad.edge1 in g.edges and bad.edge2 in g.edges
        assert bad.edge1 != bad.edge2
        assert bad.vertex in bad.edge1 and bad.vertex in bad.edge2
        assert colour_of(x, *bad.edge1) == colour_of(x, *bad.edge2)
        return
    assert isinstance(bad, BichromaticCycle)
    cyc = bad.cycle
    # two-colour subgraphs of a proper colouring have max degree 2, so any
    # cycle in one is even and alternates the pair
    assert len(cyc) >= 4 and len(cyc) % 2 == 0
    assert len(set(cyc)) == len(cyc)
    walk = []
    for i in range(len(cyc)):
        u, v = cyc[i], cyc[(i + 1) % len(cyc)]
        assert g.has_edge(u, v)
        walk.append(colour_of(x, u, v))
    assert set(walk) == {bad.colour_a, bad.colour_b}
    for first, second in zip(walk, walk[1:] + walk[:1]):
        assert first != second


@given(st.integers(3, 7), st.data())
def test_violation_witnesses_revalidate(n, data):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True, min_size=1))
    g = Graph(n, chosen)
    k = data.draw(st.integers(1, 3))
    colours = [data.draw(st.integers(0, k - 1)) for _ in range(g.m)]
    x = EdgeColouring.single_family(g, colours, k)
    bad = check_acyclic(x)
    if bad is not None:
        _revalidate_witness(g, x, bad)


def test_proper_colourings_use_at_least_max_degree_colours():
    # pigeonhole at a maximum-degree vertex
    star = Graph(6, [(0, i) for i in range(1, 6)])
    for g in (path(5), cycle(6), complete(5), star):
        assigned = {}
        for u, v in g.edges:
            used = {
                assigned[g.edges[i]]
                for w in (u, v)
                for i in g.incident_edges(w)
                if g.edges[i] in assigned
            }
            c = 0
            while c in used:
                c += 1
            assigned[(u, v)] = c
        k = max(assigned.values()) + 1
        x = EdgeColouring.single_family(g, [assigned[e] for e in g.edges], k)
        assert proper(x)
        assert colours_used(x) >= g.max_degree


@given(st.integers(2, 9), st.integers(1, 6), st.data())
def test_find_bichromatic_cycle_matches_union_find_reference(n, k, data):
    # random proper colourings over a mixed palette: each edge draws a colour
    # free at both endpoints, and an edge left with none is dropped
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True))
    palette = ColourPalette(*data.draw(st.sampled_from([(k - h, h) for h in range(k + 1)])))
    ids = palette_colours(palette)
    at = [set() for _ in range(n)]
    coloured = {}
    for u, v in chosen:
        free = [c for c in ids if c not in at[u] and c not in at[v]]
        if free:
            c = data.draw(st.sampled_from(free))
            at[u].add(c)
            at[v].add(c)
            coloured[(u, v)] = c
    x = EdgeColouring.from_edge_map(Graph(n, coloured), coloured, palette)
    assert check_acyclic(x) == bichromatic_cycle(x)


def test_find_bichromatic_cycle_matches_reference_on_many_cycles():
    # grid edges coloured by row/column parity and cube edges by dimension
    # leave a two-coloured 4-cycle on every face; random relabellings vary
    # which of them a union-find pass over the edge order closes first
    rng = random.Random(3)
    g, q = grid(6, 7), hypercube(5)
    by_parity = {
        (u, v): unprimed(u % 7 % 2) if v - u == 1 else primed(u // 7 % 2) for u, v in g.edges
    }
    by_dimension = {(u, v): unprimed((v - u).bit_length() - 1) for u, v in q.edges}
    cases = [(g, by_parity, ColourPalette(2, 2)), (q, by_dimension, ColourPalette(5))]
    for graph, colour, palette in cases:
        for _ in range(10):
            perm = list(range(graph.n))
            rng.shuffle(perm)
            mapping = {tuple(sorted((perm[u], perm[v]))): c for (u, v), c in colour.items()}
            x = EdgeColouring.from_edge_map(Graph(graph.n, mapping), mapping, palette)
            found = check_acyclic(x)
            assert found is not None and found == bichromatic_cycle(x)

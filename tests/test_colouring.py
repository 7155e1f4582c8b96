import contextlib
import random
import signal
import time
import tracemalloc
import types
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from boxcolour.colouring import (
    BichromaticCycle,
    ColourPalette,
    EdgeColouring,
    NotProper,
    canonical_cycle,
    check_acyclic,
    check_proper_vertex,
    colour_label,
    colours_used,
    parse_colour_label,
)
from boxcolour import Violation, colouring
from boxcolour.compose import compose
from boxcolour.graphs import Graph, cartesian_product, complete, cycle, grid, hypercube, path
from boxcolour.solver import exact_aci

from bruteforce import (
    bichromatic_cycle,
    colour_of,
    first_clash,
    from_edge_map,
    indexes,
    label_of,
    label_rank,
    origin_edge,
    proper,
)


def test_colour_encoding_roundtrip():
    # ranks below g_size are the unmarked family, the rest the primed one
    p = ColourPalette(4, 4)
    assert [colour_label(r, p.g_size) for r in range(p.size)] == [
        "0", "1", "2", "3", "0'", "1'", "2'", "3'"
    ]
    assert parse_colour_label("3", p) == 3
    assert parse_colour_label("3'", p) == 7
    assert parse_colour_label("3'") == parse_colour_label("3") == -1  # syntax only
    with pytest.raises(ValueError):
        parse_colour_label("-1", p)
    with pytest.raises(ValueError):
        parse_colour_label("x")


@pytest.mark.parametrize("colour", [0, 1, 2, 3, 20, 21, 2 * 10**6 + 1])
def test_colour_labels_parse_back(colour):
    # the rank as the last of the first family, the first of the second,
    # and inside a single family
    for sizes in ((colour + 1, 0), (colour, 1), (0, colour + 1)):
        p = ColourPalette(*sizes)
        assert parse_colour_label(colour_label(colour, p.g_size), p) == colour


@given(st.integers(0, 50), st.integers(0, 50), st.data())
def test_labels_round_trip_every_rank_of_a_palette(g_size, h_size, data):
    p = ColourPalette(g_size, h_size)
    labels = [colour_label(r, g_size) for r in range(p.size)]
    assert len(set(labels)) == p.size
    assert [parse_colour_label(label, p) for label in labels] == list(range(p.size))
    assert labels == [label_of(p, r) for r in range(p.size)]
    assert [label_rank(label, p) for label in labels] == list(range(p.size))
    # a label one past either family is outside the palette
    beyond = data.draw(st.sampled_from([str(g_size), f"{h_size}'"]))
    with pytest.raises(ValueError, match="outside palette"):
        parse_colour_label(beyond, p)


@pytest.mark.parametrize(
    "label",
    ["", "'", "''", "0''", "1_0", "+1", "-0", " 0", "0 ", "00", "01", "00'",
     "\u0663", "\u00b2", "1.0", "1e3", "0x1"],
)
def test_colour_labels_never_written_are_rejected(label):
    with pytest.raises(ValueError, match="invalid colour label"):
        parse_colour_label(label)


def test_palette_order_puts_unprimed_first():
    p = ColourPalette(3, 2)
    assert p.size == 5
    assert [colour_label(r, p.g_size) for r in range(p.size)] == ["0", "1", "2", "0'", "1'"]
    assert parse_colour_label("2", p) == 2 and parse_colour_label("1'", p) == 4
    for label in ("3", "2'"):
        with pytest.raises(ValueError, match=f"colour {label} outside palette"):
            parse_colour_label(label, p)
    with pytest.raises(ValueError):
        ColourPalette(-1, 0)


def test_edge_colouring_validation():
    c4 = cycle(4)
    with pytest.raises(ValueError):
        EdgeColouring(c4, [0, 0, 0], ColourPalette(1))
    # a rank past the palette is named by the label it would have on the wire
    with pytest.raises(ValueError, match="colour 0' outside palette"):
        EdgeColouring(c4, [2] * 4, ColourPalette(2))
    with pytest.raises(ValueError, match="colour 1' outside palette"):
        EdgeColouring(c4, [0, 1, 2, 0], ColourPalette(1, 1))
    # no rank is negative, whatever the palette
    for negative in (-2, -1):
        with pytest.raises(ValueError):
            EdgeColouring(path(2), [negative], ColourPalette(1, 1))
    x = EdgeColouring.single_family(c4, [0, 1, 1, 0], 2)
    with pytest.raises(AttributeError):
        x.colours = ()


@pytest.mark.parametrize("colours, named", [
    ([0.5, 0], "0.5"),
    ([0, 1.0], "1.0"),
    ([True, 0], "True"),
    # the first edge's, though a later one is outside the palette
    ([0, False, 7], "False"),
    ([0, "1"], "'1'"),
])
def test_edge_colouring_rejects_colours_that_are_not_ints(colours, named):
    g = path(len(colours) + 1)
    with pytest.raises(ValueError, match=f"^colour must be an integer, got {named}$"):
        EdgeColouring(g, colours, ColourPalette(2))


@pytest.mark.parametrize("sizes, named", [((1.5,), "1.5"), ((1, 0.5), "0.5"), ((True,), "True")])
def test_palette_sizes_must_be_ints(sizes, named):
    # a one-and-a-half colour palette would be written to the wire as 1.5
    with pytest.raises(ValueError, match=f"^palette size must be an integer, got {named}$"):
        ColourPalette(*sizes)


def test_a_colouring_that_is_not_ints_never_reaches_compose():
    # [0.5, 0] would pass check_acyclic on two colours in a one-colour
    # palette, and compose would then break its eta + beta bound
    k2 = complete(2)
    one = EdgeColouring.single_family(k2, [0], 1)
    with pytest.raises(ValueError, match="colour must be an integer"):
        compose(EdgeColouring(path(3), [0.5, 0], ColourPalette(1)), one)
    with pytest.raises(ValueError, match="edge endpoint must be an integer"):
        compose(one, EdgeColouring(Graph(3, [(0.5, 1), (1, 2)]), [0, 1], ColourPalette(2)))


def test_from_edge_map_requires_total_map():
    g = path(3)
    full = {(0, 1): 0, (1, 2): 1}
    x = from_edge_map(g, full, ColourPalette(2))
    assert colour_of(x, 1, 0) == 0
    with pytest.raises(ValueError):
        from_edge_map(g, {(0, 1): 0}, ColourPalette(2))


def test_colouring_json_roundtrip():
    c4 = cycle(4)
    x = EdgeColouring(
        c4,
        [0, 2, 3, 1],
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
    assert repr(x) == "EdgeColouring(Graph(n=4, m=3), 2 colours)"


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
            col[(min(u, v), max(u, v))] = i % 2
        x = from_edge_map(c, col, ColourPalette(2))
        found = check_acyclic(x)
        assert isinstance(found, BichromaticCycle)
        assert found.cycle == tuple(range(n))
        assert {found.colour_a, found.colour_b} == {"0", "1"}


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
    x = from_edge_map(k4, matching, ColourPalette(3))
    assert proper(x)
    bad = check_acyclic(x)
    assert isinstance(bad, BichromaticCycle)
    # smallest colour pair is reported first, by its wire labels
    assert (bad.colour_a, bad.colour_b) == ("0", "1")
    assert bad.cycle[0] == 0 and len(bad.cycle) == 4


def test_both_violations_are_instances_of_the_exported_union():
    # Violation is a PEP 604 union, which isinstance takes as it is
    assert isinstance(Violation, types.UnionType)
    improper = check_acyclic(EdgeColouring.single_family(path(3), [0, 0], 1))
    cyclic = check_acyclic(EdgeColouring.single_family(cycle(4), [0, 1, 1, 0], 2))
    assert isinstance(improper, NotProper) and isinstance(cyclic, BichromaticCycle)
    assert isinstance(improper, Violation) and isinstance(cyclic, Violation)


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
    bc = BichromaticCycle("0", "0'", (0, 1, 2, 3))
    data = bc.to_json_dict()
    assert data["kind"] == "bichromatic_cycle"
    assert data["colours"] == ["0", "0'"]
    assert data["cycle"] == [0, 1, 2, 3]


def test_vertex_colouring_checks():
    g = path(3)
    assert check_proper_vertex(g, [0, 1, 0]) is None
    assert check_proper_vertex(g, [0, 0, 1]) == (0, 1)
    with pytest.raises(ValueError, match="expected 3 vertex colours, got 2"):
        check_proper_vertex(g, [0, 1])


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
        assert (min(u, v), max(u, v)) in g.edges
        walk.append(colour_of(x, u, v))
    assert {label_of(x.palette, c) for c in walk} == {bad.colour_a, bad.colour_b}
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
        incident = indexes(g)[2]
        assigned = {}
        for u, v in g.edges:
            used = {
                assigned[g.edges[i]]
                for w in (u, v)
                for i in incident[w]
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
    ids = range(palette.size)
    at = [set() for _ in range(n)]
    coloured = {}
    for u, v in chosen:
        free = [c for c in ids if c not in at[u] and c not in at[v]]
        if free:
            c = data.draw(st.sampled_from(free))
            at[u].add(c)
            at[v].add(c)
            coloured[(u, v)] = c
    x = from_edge_map(Graph(n, coloured), coloured, palette)
    assert check_acyclic(x) == bichromatic_cycle(x)


def test_find_bichromatic_cycle_matches_reference_on_many_cycles():
    # grid edges coloured by row/column parity and cube edges by dimension
    # leave a two-coloured 4-cycle on every face; random relabellings vary
    # which of them a union-find pass over the edge order closes first
    rng = random.Random(3)
    g, q = grid(6, 7), hypercube(5)
    by_parity = {(u, v): u % 7 % 2 if v - u == 1 else 2 + u // 7 % 2 for u, v in g.edges}
    by_dimension = {(u, v): (v - u).bit_length() - 1 for u, v in q.edges}
    cases = [(g, by_parity, ColourPalette(2, 2)), (q, by_dimension, ColourPalette(5))]
    for graph, colour, palette in cases:
        for _ in range(10):
            perm = list(range(graph.n))
            rng.shuffle(perm)
            mapping = {tuple(sorted((perm[u], perm[v]))): c for (u, v), c in colour.items()}
            x = from_edge_map(Graph(graph.n, mapping), mapping, palette)
            found = check_acyclic(x)
            assert found is not None and found == bichromatic_cycle(x)


@given(st.integers(2, 8), st.data())
def test_check_acyclic_matches_the_references_on_any_colouring(n, data):
    # colours drawn freely, so most of these are improper
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True, min_size=1))
    g = Graph(n, chosen)
    palette = ColourPalette(*data.draw(st.sampled_from([(1, 1), (2, 1), (3, 0), (2, 2), (3, 2)])))
    ids = range(palette.size)
    x = EdgeColouring(g, [data.draw(st.sampled_from(ids)) for _ in range(g.m)], palette)
    clash = first_clash(x)
    assert (clash is None) == proper(x)
    assert check_acyclic(x) == (clash if clash is not None else bichromatic_cycle(x))


def _relabelled(x: EdgeColouring, rng: random.Random) -> EdgeColouring:
    perm = list(range(x.graph.n))
    rng.shuffle(perm)
    mapping = {
        tuple(sorted((perm[u], perm[v]))): c for (u, v), c in zip(x.graph.edges, x.colours)
    }
    return from_edge_map(Graph(x.graph.n, mapping), mapping, x.palette)


def _unshifted(xg: EdgeColouring, xh: EdgeColouring) -> EdgeColouring:
    """g x h coloured as compose would, but with every copy of h left
    unshifted: h colours first, g colours after them.  Proper, yet any
    h-edge and the g-edges joining its two ends to another copy span a
    two-coloured 4-cycle."""
    product, origin = cartesian_product(xg.graph, xh.graph)
    eta = xh.palette.size
    colours = []
    for o in origin:
        factor, edge, _ = origin_edge(o, xg.graph, xh.graph)
        colours.append(eta + colour_of(xg, *edge) if factor == "g" else colour_of(xh, *edge))
    return EdgeColouring(product, colours, ColourPalette(eta, xg.palette.size))


def test_check_acyclic_matches_the_references_on_a_large_product():
    # grid 20x20 x K5, relabelled at random: as composed it is accepted; with
    # one edge at the last vertex recoloured it clashes at a vertex the scan
    # reaches late, and without the per-copy shifts it holds two-coloured
    # cycles
    rng = random.Random(20)
    xg, xh = exact_aci(grid(20, 20)).witness, exact_aci(complete(5)).witness
    composed = _relabelled(compose(xg, xh), rng)
    assert check_acyclic(composed) is None
    g = composed.graph
    top = [i for i, e in enumerate(g.edges) if g.n - 1 in e]
    colours = list(composed.colours)
    colours[top[-1]] = colours[top[0]]
    clashing = EdgeColouring(g, colours, composed.palette)
    clash = first_clash(clashing)
    assert clash is not None and clash.vertex >= 0.9 * g.n
    assert check_acyclic(clashing) == clash
    unshifted = _relabelled(_unshifted(xg, xh), rng)
    assert proper(unshifted)
    cyc = bichromatic_cycle(unshifted)
    assert cyc is not None and check_acyclic(unshifted) == cyc


def test_many_colours_verify_in_linear_time_and_memory():
    # K1,20000 with 20,000 colours: a colour on one edge is never paired, so
    # the pair scan, once quadratic in the colours, does no work here; and
    # no per-colour table of length n is allocated.  Timed under tracemalloc,
    # which only slows it.
    n = 20_000
    tracemalloc.start()
    try:
        star = Graph(n + 1, [(0, i) for i in range(1, n + 1)])
        x = EdgeColouring.single_family(star, range(n), n)
        own = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        t = time.perf_counter()
        assert check_acyclic(x) is None
        elapsed = time.perf_counter() - t
        extra = tracemalloc.get_traced_memory()[1] - own
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0
    assert extra < 2 * own


def test_many_two_edge_colours_on_a_path_verify_in_linear_time_and_memory():
    # P8001 with 4,000 colours on two edges each: edges 4t..4t+3 take
    # colours 2t, 2t+1, 2t, 2t+1.  The 4,000 paired classes give about 8 M
    # pairs against 8,000 edges, so the pairs are found from the vertices,
    # not by testing each one.  Memory is measured under tracemalloc, and
    # the time, which tracemalloc only slows, is the best of three runs
    # without it.
    n = 8_001
    tracemalloc.start()
    try:
        p = Graph(n, [(i, i + 1) for i in range(n - 1)])
        x = EdgeColouring.single_family(p, [2 * (i // 4) + i % 2 for i in range(n - 1)], 4_000)
        own = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        assert check_acyclic(x) is None
        extra = tracemalloc.get_traced_memory()[1] - own
    finally:
        tracemalloc.stop()
    assert extra < 2 * own
    elapsed = []
    for _ in range(3):
        t = time.perf_counter()
        assert check_acyclic(x) is None
        elapsed.append(time.perf_counter() - t)
    assert min(elapsed) < 0.1


@given(st.integers(5, 12), st.data())
def test_check_acyclic_matches_the_reference_with_many_colours(n, data):
    # proper colourings over a palette of up to m/2 colours, so that most
    # classes are paired, checked as they come and again with the pairs
    # that meet listed from the vertices, as check_acyclic lists them past
    # `_PAIRS_PER_EDGE` pairs per edge;
    # a planted even cycle in two alternating colours makes some cyclic.
    # Every other edge draws a colour free at both ends, or is dropped.
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True, min_size=10))
    k = data.draw(st.integers(2, len(chosen) // 2))
    at = [set() for _ in range(n)]
    coloured = {}
    if data.draw(st.booleans()):
        length = data.draw(st.sampled_from(range(4, n + 1, 2)))
        ring = data.draw(st.permutations(range(n)))[:length]
        a, b = data.draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=2, unique=True))
        for i in range(length):
            u, v = sorted((ring[i], ring[(i + 1) % length]))
            coloured[(u, v)] = a if i % 2 else b
            at[u].add(coloured[(u, v)])
            at[v].add(coloured[(u, v)])
    for u, v in chosen:
        free = [c for c in range(k) if c not in at[u] | at[v]]
        if (u, v) not in coloured and free:
            c = coloured[(u, v)] = data.draw(st.sampled_from(free))
            at[u].add(c)
            at[v].add(c)
    x = from_edge_map(Graph(n, coloured), coloured, ColourPalette(k))
    want = bichromatic_cycle(x)
    assert check_acyclic(x) == want
    with mock.patch.object(colouring, "_PAIRS_PER_EDGE", 0):
        assert check_acyclic(x) == want


_DENSE, _SPARSE = (0, 1, 2), (3, 4, 5, 6)


@contextlib.contextmanager
def _time_limit(seconds):
    """Raise TimeoutError in the block once `seconds` have passed, so that a
    walk that never ends fails its test instead of hanging the suite."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@given(
    st.integers(24, 48),
    st.sampled_from([None, (_DENSE, _DENSE), (_DENSE, _SPARSE), (_SPARSE, _SPARSE)]),
    st.booleans(),
    st.data(),
)
def test_check_acyclic_matches_the_references_on_dense_and_sparse_classes(n, planted, clash, data):
    # a class with at least n/8 edges keeps its mates in a list of n, a
    # smaller one in a dict.  Colours 0-2 get at least n/8 edges each and
    # colours 3-6 two to n/8 - 1, so dense-dense, dense-sparse and
    # sparse-sparse pairs are all walked.  An even cycle alternating two
    # colours of the drawn kinds may be planted, and one edge may take the
    # colour of an edge it meets.  Checked as they come and again with the
    # pairs that meet listed from the vertices.
    share = -(-n // 8)
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    at = [set() for _ in range(n)]
    coloured = {}

    def add(u, v, c):
        coloured[(u, v) if u < v else (v, u)] = c
        at[u].add(c)
        at[v].add(c)

    if planted is not None:
        a = data.draw(st.sampled_from(planted[0]))
        b = data.draw(st.sampled_from([c for c in planted[1] if c != a]))
        longest = n if planted[1] is _DENSE else 2 * (share - 1)
        ring = rng.sample(range(n), data.draw(st.sampled_from(range(4, longest + 1, 2))))
        for i, u in enumerate(ring):
            add(u, ring[i - 1], a if i % 2 else b)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for c in _DENSE + _SPARSE:
        size = sum(1 for d in coloured.values() if d == c)
        target = share + rng.randrange(share) if c in _DENSE else rng.randrange(2, share)
        for u, v in rng.sample(pairs, len(pairs)):
            if size >= target:
                break
            if (u, v) not in coloured and c not in at[u] | at[v]:
                add(u, v, c)
                size += 1
    x = from_edge_map(Graph(n, coloured), coloured, ColourPalette(7))
    sizes = [x.colours.count(c) for c in range(7)]
    assert all(size * 8 >= n for size in sizes[:3])
    assert all(2 <= size and size * 8 < n for size in sizes[3:])
    if clash:
        # recolour an edge to the colour of an edge at one of its ends
        i, c = rng.choice([
            (i, c) for i, (u, v) in enumerate(x.graph.edges)
            for c in sorted(at[u] | at[v]) if c != x.colours[i]
        ])
        colours = list(x.colours)
        colours[i] = c
        x = EdgeColouring(x.graph, colours, x.palette)
    want = first_clash(x)
    if want is None:
        want = bichromatic_cycle(x)
        assert want is not None or planted is None
    assert clash == isinstance(want, NotProper)
    with _time_limit(1):
        assert check_acyclic(x) == want
        with mock.patch.object(colouring, "_PAIRS_PER_EDGE", 0):
            assert check_acyclic(x) == want


def test_classes_at_the_dense_share_verify_in_linear_memory():
    # C16000 with colour i on edges i mod 8: every class has exactly n/8
    # edges, the fewest that keep a class's mates in a list of n, so the
    # lists hold 8m slots, the most the share allows
    n = 16_000
    tracemalloc.start()
    try:
        x = EdgeColouring.single_family(cycle(n), [i % 8 for i in range(n)], 8)
        own = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        assert check_acyclic(x) is None
        extra = tracemalloc.get_traced_memory()[1] - own
    finally:
        tracemalloc.stop()
    assert extra < 2 * own

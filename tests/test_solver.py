import importlib
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from bruteforce import (
    brute_aci,
    colour_of,
    connected_graphs_up_to as reference_corpus,
    feasible,
    first_fit,
    from_edge_map,
    isomorphic,
)
from boxcolour.colouring import EdgeColouring, check_acyclic, colours_used
from boxcolour.corpus import connected_graphs_up_to
from boxcolour.graphs import Graph, cartesian_product, complete, cycle, grid, hypercube, path
from boxcolour.solver import (
    AciResult,
    SearchBudget,
    _edge_order,
    _first_colouring,
    _search,
    exact_aci,
    forest_bound,
    greedy_acyclic,
    lower_bound,
)


def test_lower_bound_examples():
    assert lower_bound(complete(2)) == 1
    assert lower_bound(cycle(4)) == 3
    assert lower_bound(hypercube(3)) == 4
    assert lower_bound(path(5)) == 2
    assert lower_bound(Graph(4, [(0, 1), (0, 2), (0, 3)])) == 3
    # the whole graph's counts give 4; its K4 gives 5, which is its index
    g = Graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)])
    assert (_whole_graph_bound(g), lower_bound(g), brute_aci(g)) == (4, 5, 5)
    # at most 3 vertices, and no edge
    assert [lower_bound(g) for g in (path(2), path(3), complete(3))] == [1, 2, 3]
    assert [lower_bound(Graph(n, [])) for n in range(6)] == [0] * 6


def _whole_graph_bound(g: Graph) -> int:
    # the degree bound and the whole graph's forest count, the larger
    degrees = [0] * g.n
    for u, v in g.edges:
        degrees[u] += 1
        degrees[v] += 1
    delta = max(degrees, default=0)
    regular = delta > 1 and min(degrees) == delta
    return max(delta + regular, forest_bound(g))


def _peeling_bound(g: Graph) -> int:
    """The bound by its definition: the whole graph's bound, and the forest
    count of each prefix of the peeling that removes a vertex of least
    degree, the lowest on ties, down to 3 vertices, each prefix built as a
    graph."""
    best, alive = _whole_graph_bound(g), list(range(g.n))
    while len(alive) > 3:
        inside = [(u, v) for u, v in g.edges if u in alive and v in alive]
        degree = {v: sum(v in e for e in inside) for v in alive}
        alive.remove(min(alive, key=lambda v: (degree[v], v)))
        index = {v: i for i, v in enumerate(alive)}
        rest = [(index[u], index[v]) for u, v in inside if u in index and v in index]
        best = max(best, forest_bound(Graph(len(alive), rest)))
    return best


def test_bounds_are_sound_on_every_connected_graph_up_to_six_vertices():
    for g in reference_corpus(6):
        assert _whole_graph_bound(g) <= lower_bound(g) <= brute_aci(g), g.edges


def test_peeled_bound_is_sound_and_never_below_the_whole_graph_bound_up_to_seven_vertices():
    # the skip and the early stop never change the value: it is the
    # definition's on every graph, and at most aci on all 996
    raised = 0
    for g in connected_graphs_up_to(7):
        bound = lower_bound(g)
        assert _whole_graph_bound(g) <= bound == _peeling_bound(g) <= exact_aci(g).aci, g.edges
        raised += bound > _whole_graph_bound(g)
    assert raised == 128


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 9), st.sets(st.tuples(st.integers(0, 8), st.integers(1, 9))))
def test_peeled_bound_matches_its_definition(n, pairs):
    # disconnected graphs and isolated vertices included
    g = Graph(n, {(u, v) for u, v in pairs if u < v < n})
    assert lower_bound(g) == _peeling_bound(g)


@pytest.mark.parametrize(
    "n, edges",
    [
        (5, []),
        (4, [(0, 1)]),
        (6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]),
        (6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (4, 5)]),
        (8, [(i, j) for i in range(4) for j in range(i + 1, 4)]
            + [(i, j) for i in range(4, 8) for j in range(i + 1, 8)]),
        (6, [(i, j) for i in range(5) for j in range(i + 1, 5)]),
        (7, [(i, j) for i in range(6) for j in range(i + 1, 6)]),
        (7, [(i, j) for i in range(4) for j in range(i + 1, 4)] + [(4, 5), (5, 6)]),
    ],
    ids=["edgeless", "K2+2K1", "2K3", "K4+K2", "2K4", "K5+K1", "K6+K1", "K4+P3"],
)
def test_bounds_are_sound_on_disconnected_graphs(n, edges):
    # the matching counts hold on any vertex set; isolated vertices only
    # loosen them, and peeling them off finds the dense part
    g = Graph(n, edges)
    assert _whole_graph_bound(g) <= lower_bound(g) <= brute_aci(g)


@pytest.mark.parametrize("n", [6, 8])
def test_forest_bound_beats_the_degree_bound_on_even_cliques(n):
    # K_n is (n-1)-regular, so the degree bound is n; at most one colour
    # class is a perfect matching, so n(n-1)/2 <= n/2 + (k-1)(n/2 - 1)
    # forces k >= n + 1
    g = complete(n)
    assert g.max_degree + 1 == n
    assert forest_bound(g) == lower_bound(g) == n + 1


def test_exact_known_values():
    for g, want in [
        (complete(2), 1),
        (path(5), 2),
        (cycle(4), 3),
        (cycle(5), 3),
        (cycle(6), 3),
        (hypercube(3), 4),
        (complete(4), 5),
        (complete(5), 5),
    ]:
        r = exact_aci(g)
        assert r.aci == want, (g.edges, r.aci, want)
        assert not r.exhausted
        assert r.lower == r.aci == r.upper


def test_witness_is_verified_and_tight():
    r = exact_aci(complete(5))
    assert check_acyclic(r.witness) is None
    assert colours_used(r.witness) == r.aci
    assert r.witness.palette.size == r.aci


def test_every_witness_uses_its_whole_palette():
    # no acyclic colouring has fewer than a' colours, so a witness whose
    # palette has a' colours uses all of them; this is why the product
    # tactic hands out the composed ranks as they are: rotations of whole
    # palettes are whole, and the eta + beta ranks are all used
    tactics = set()
    for g in connected_graphs_up_to(6):
        r = exact_aci(g)
        assert colours_used(r.witness) == r.witness.palette.size == r.aci, g.edges
        tactics.add(r.tactic)
    assert tactics == {"search", "factor"}


def test_empty_and_trivial_graphs():
    for n in (0, 1):
        r = exact_aci(Graph(n, []))
        assert r.aci == 0 and r.witness.colours == ()
    r = exact_aci(Graph(3, [(0, 1)]))
    assert r.aci == 1


def test_budget_validation():
    with pytest.raises(ValueError):
        SearchBudget(max_nodes=0)
    with pytest.raises(ValueError):
        SearchBudget(max_time=0)


def test_budget_exhaustion_reports_bounds():
    r = exact_aci(complete(7), SearchBudget(max_nodes=5, max_time=60))
    assert r.exhausted
    assert r.aci is None
    # K7 is 6-regular, so the search floor is 7; 5 nodes cannot settle it
    assert (r.lower, r.upper, r.nodes, r.tactic) == (7, 9, 6, "greedy")
    # greedy's colouring stays behind the upper bound
    assert r.witness == greedy_acyclic(complete(7))
    assert colours_used(r.witness) == r.upper


def test_aci_and_exhausted_are_read_off_the_bounds():
    exact = AciResult(None, 3, 0.5, 2, 2, "search")
    assert (exact.aci, exact.exhausted) == (2, False)
    open_bracket = AciResult(None, 3, 0.5, 2, 3, "greedy")
    assert (open_bracket.aci, open_bracket.exhausted) == (None, True)
    for name in ("aci", "exhausted"):
        assert name not in AciResult.__slots__
        with pytest.raises(AttributeError):
            setattr(exact, name, 5)


def test_budget_exhaustion_with_meeting_bounds_is_exact():
    # K3 needs 3 nodes at k = 3, its lower bound; greedy also uses 3
    # colours, so the bounds meet and greedy's colouring is the witness
    r = exact_aci(complete(3), SearchBudget(max_nodes=2, max_time=60))
    assert not r.exhausted
    assert r.lower == r.aci == r.upper == 3 and r.tactic == "greedy"
    assert colours_used(r.witness) == 3 and check_acyclic(r.witness) is None


def test_budget_exhaustion_keeps_the_composed_upper_bound():
    # C5 x C7 is 4-regular, so its lower bound is 5; the theorem composes
    # 3 + 3 = 6 colours, fewer than greedy, and the search at 5 needs more
    # than 50 nodes
    g = cartesian_product(cycle(5), cycle(7))[0]
    truth = exact_aci(g).aci
    r = exact_aci(g, SearchBudget(max_nodes=50, max_time=60))
    assert r.exhausted and r.aci is None
    assert (r.lower, r.upper, r.nodes, r.tactic) == (5, 6, 51, "factor")
    assert colours_used(greedy_acyclic(g)) > 6
    assert r.lower <= truth <= r.upper
    # the composed colouring, which the full solve's search beats, is the
    # witness behind the upper bound
    assert r.witness.graph == g and colours_used(r.witness) == 6
    assert exact_aci(g).witness != r.witness


def test_the_search_stops_at_its_clock():
    # K9's search at its lower bound 9 runs far past 0.05 s, and the clock
    # is read on every 2048th node, so that is where the search stops
    r = exact_aci(complete(9), SearchBudget(max_nodes=10**9, max_time=0.05))
    assert r.exhausted and r.lower == 9 and r.nodes % 2048 == 0
    assert check_acyclic(r.witness) is None and colours_used(r.witness) == r.upper


def test_product_recognition_stops_at_the_clock():
    # K60,60 has the counts and degrees of K2 x K60, so it is factorised,
    # and delta* on it costs about 60^4 steps; the clock cuts that short,
    # and the search then stops at its first clock read
    g = Graph(120, [(i, 60 + j) for i in range(60) for j in range(60)])
    start = time.perf_counter()
    r = exact_aci(g, SearchBudget(max_nodes=10**9, max_time=0.2))
    assert time.perf_counter() - start < 2
    assert r.exhausted and r.lower == 61 and r.nodes == 2048


def _perfbench_checker():
    # the benchmark's independent checker, imported as tests/test_surface.py
    # imports the tracer
    perfbench = str(Path(__file__).resolve().parent.parent / "perfbench")
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(perfbench)
        return importlib.import_module("check")


@pytest.mark.parametrize(
    "g, max_nodes, tactic",
    [(complete(7), 5, "greedy"), (cartesian_product(cycle(5), cycle(7))[0], 50, "factor")],
    ids=["K7-greedy", "C5xC7-factor"],
)
def test_every_exhausted_result_carries_its_upper_colouring(g, max_nodes, tactic):
    r = exact_aci(g, SearchBudget(max_nodes=max_nodes, max_time=60))
    assert r.exhausted and r.tactic == tactic
    assert colours_used(r.witness) == r.upper
    assert check_acyclic(r.witness) is None
    check = _perfbench_checker()
    x = check.check_colouring(r.witness.to_json_dict(), g.n, list(g.edges), r.upper)
    assert len(x.used()) == r.upper


_SMALL = connected_graphs_up_to(6)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(_SMALL), st.integers(1, 50))
def test_any_budget_brackets_the_index_with_a_checked_colouring(g, max_nodes):
    r = exact_aci(g, SearchBudget(max_nodes=max_nodes, max_time=60))
    assert r.lower <= brute_aci(g) <= r.upper
    assert check_acyclic(r.witness) is None
    assert r.witness.graph == g and colours_used(r.witness) == r.upper
    assert (r.aci is None) == r.exhausted


@pytest.mark.parametrize(
    "g, nodes",
    [
        (hypercube(6), 85_584),
        (grid(8, 8), 33_161),
        (complete(6), 24),
        (cartesian_product(complete(5), path(2))[0], 13_547),
    ],
    ids=["Q6", "grid8x8", "K6", "K5xP2"],
)
def test_search_node_counts(g, nodes):
    # pins the search order: edge order, colour order and the canonical rule
    assert _search(g).nodes == nodes


def test_refuting_a_level_counts_every_node():
    # the forest bound starts K6 at 7, where it is solved; 6 colours are
    # refuted after 379 nodes, the count the search placed there before
    g = complete(6)
    assert _first_colouring(g, _edge_order(g), 6, SearchBudget(), time.perf_counter(), 0) == (
        None,
        379,
    )


def test_search_node_counts_on_small_corpus():
    # also pins the corpus, whose labellings set each search, and the
    # peeled bound, which starts 128 of these searches higher
    graphs = connected_graphs_up_to(7)
    assert len(graphs) == 996
    nodes = [_search(g).nodes for g in graphs]
    assert sum(x for x, g in zip(nodes, graphs) if g.n <= 6) == 1_240
    assert sum(nodes) == 14_613


@pytest.mark.parametrize(
    "g, aci, nodes, tactic",
    [
        (hypercube(6), 7, 6, "factor"),
        (grid(8, 8), 4, 14, "factor"),
        (complete(6), 7, 24, "search"),
        (cartesian_product(complete(5), path(2))[0], 6, 13, "factor"),
    ],
    ids=["Q6", "grid8x8", "K6", "K5xP2"],
)
def test_exact_node_counts(g, aci, nodes, tactic):
    # the products are coloured by the construction and only their factors
    # are searched: Q6 through K2 x Q5, ..., K2 x K2, one node per K2
    r = exact_aci(g)
    assert (r.aci, r.nodes, r.tactic) == (aci, nodes, tactic)


def test_exact_node_counts_on_small_corpus():
    # the factor tactic changes exactly the three products up to 7
    # vertices: K2 x K2 (4 -> 2 nodes), P3 x K2 (10 -> 3) and K3 x K2
    # (16 -> 4)
    graphs = connected_graphs_up_to(7)
    results = [exact_aci(g) for g in graphs]
    assert sum(r.nodes for r, g in zip(results, graphs) if g.n <= 6) == 1_219
    assert sum(r.nodes for r in results) == 14_592
    factored = [g for r, g in zip(results, graphs) if r.tactic == "factor"]
    products = [cartesian_product(a, path(2))[0] for a in (path(2), path(3), cycle(3))]
    assert len(factored) == 3
    assert all(any(isomorphic(g, p) for p in products) for g in factored)


def test_determinism():
    a = exact_aci(complete(5))
    b = exact_aci(complete(5))
    assert a.aci == b.aci and a.nodes == b.nodes
    assert a.witness == b.witness


def test_greedy_examples():
    assert colours_used(greedy_acyclic(complete(2))) == 1
    assert colours_used(greedy_acyclic(path(5))) == 2
    x = greedy_acyclic(complete(6))
    assert 5 <= colours_used(x) <= 15
    assert check_acyclic(x) is None


def test_greedy_may_open_a_colour_absent_from_both_endpoints():
    # on the four-cycle 0-1-2-3, colour 0 is at neither end of (2, 3), yet
    # it would close 2-1-0-3 with colour 1, so the edge opens colour 2
    g = Graph(4, [(0, 1), (0, 3), (1, 2), (2, 3)])
    assert greedy_acyclic(g).colours == (0, 1, 1, 2)


def test_greedy_seeds():
    g = complete(5)
    assert greedy_acyclic(g, seed=2).colours == greedy_acyclic(g, seed=2).colours
    for seed in range(4):
        assert check_acyclic(greedy_acyclic(g, seed=seed)) is None


def test_bound_sandwich_on_small_corpus():
    for g in connected_graphs_up_to(5):
        r = exact_aci(g)
        assert lower_bound(g) <= r.aci <= colours_used(greedy_acyclic(g))


def test_oracle_agreement_up_to_five_vertices():
    for g in connected_graphs_up_to(5):
        assert exact_aci(g).aci == brute_aci(g), g.edges


def test_oracle_cap_is_sound_on_small_graphs():
    for g in connected_graphs_up_to(4):
        assert brute_aci(g, use_cap=True) == brute_aci(g, use_cap=False), g.edges


def test_infeasibility_certificate():
    # one colour below the reported index must be infeasible for the
    # independent checker too
    for g in [cycle(4), complete(4), hypercube(3)]:
        k = exact_aci(g).aci
        assert not feasible(g, k - 1)
        assert feasible(g, k)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.data())
def test_random_graphs_match_oracle(n, data):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = data.draw(
        st.lists(st.sampled_from(pairs), unique=True, min_size=1, max_size=len(pairs))
    )
    g = Graph(n, chosen)
    r = exact_aci(g)
    assert r.aci == brute_aci(g)
    assert check_acyclic(r.witness) is None


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 7), st.integers(0, 5), st.data())
def test_greedy_always_verifies(n, seed, data):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    g = Graph(n, chosen)
    x = greedy_acyclic(g, seed=seed)
    assert check_acyclic(x) is None


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 8), st.integers(0, 9), st.data())
def test_greedy_matches_reference_first_fit(n, seed, data):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    g = Graph(n, chosen)
    want = EdgeColouring.single_family(g, first_fit(g, seed), g.m)
    assert greedy_acyclic(g, seed=seed).colours == want.colours


def test_incremental_detection_agrees_with_full_verifier():
    # replay every witness through the independent verifier one edge at a
    # time, in the order the search assigns; each accepted partial state
    # must already pass the full properness and forest checks
    for g in connected_graphs_up_to(6):
        r = exact_aci(g)
        order = _edge_order(g)
        for cut in range(1, g.m + 1):
            kept = [g.edges[i] for i in order[:cut]]
            sub = Graph(g.n, kept)
            colours = {e: colour_of(r.witness, *e) for e in sub.edges}
            partial = from_edge_map(sub, colours, r.witness.palette)
            assert check_acyclic(partial) is None

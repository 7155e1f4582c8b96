"""Cubic graphs as an oracle for the exact solver.

Andersen, Máčajová and Mazák (J. Graph Theory, 2012) show that every
connected cubic graph has acyclic chromatic index 4, except K4 and K3,3,
which need 5.  A cubic graph's lower bound is already 4, Δ + 1 on a
regular graph, so the search only has to find a 4-colouring, and every
bracket the solver reports on one must contain 4.
"""

import random

import pytest

from boxcolour.corpus import connected_graphs_up_to
from boxcolour.graphs import Graph, complete, is_connected
from boxcolour.solver import SearchBudget, exact_aci

from bruteforce import isomorphic


def random_cubic(n: int, seed: int) -> Graph:
    """A connected cubic graph on n vertices, n even and at least 4, from
    the configuration model: 3n half-edges, three per vertex, shuffled by
    `random.Random(seed)` and paired in order, the draw repeated until it
    has no loop, no repeated edge and one component."""
    rng = random.Random(seed)
    points = [v for v in range(n) for _ in range(3)]
    while True:
        rng.shuffle(points)
        pairs = list(zip(points[::2], points[1::2]))
        edges = {(min(u, v), max(u, v)) for u, v in pairs}
        if len(edges) == len(pairs) and all(u != v for u, v in edges):
            g = Graph(n, edges)
            if is_connected(g):
                return g


def test_random_cubic_is_cubic_connected_and_seeded():
    for n in (4, 6, 20, 40):
        for seed in range(3):
            g = random_cubic(n, seed)
            assert g.n == n and g.m == 3 * n // 2
            assert g.degrees == (3,) * n
            assert is_connected(g)
            assert random_cubic(n, seed) == g
    assert random_cubic(4, 0) == complete(4)  # the only cubic graph on 4


def test_k4_and_k33_need_five_and_every_other_small_cubic_graph_four():
    cubic = [g for g in connected_graphs_up_to(8) if g.n >= 4 and set(g.degrees) == {3}]
    # K4; K3,3 and the prism on 6; five cubic graphs on 8
    assert [g.n for g in cubic] == [4, 6, 6, 8, 8, 8, 8, 8]
    k33 = Graph(6, [(i, 3 + j) for i in range(3) for j in range(3)])
    exceptions = [g for g in cubic if isomorphic(g, complete(4)) or isomorphic(g, k33)]
    assert len(exceptions) == 2
    for g in cubic:
        assert exact_aci(g).aci == (5 if g in exceptions else 4)


@pytest.mark.parametrize("n", [20, 30, 40])
def test_every_bracket_on_a_random_cubic_graph_contains_four(n):
    # a graph may exhaust the budget, which is not asserted against: its
    # bracket must still contain 4, and a settled graph must settle at 4
    settled = 0
    for seed in range(10):
        g = random_cubic(n, seed)
        result = exact_aci(g, SearchBudget(max_nodes=50_000, max_time=60))
        assert result.lower <= 4 <= result.upper, (n, seed, result.lower, result.upper)
        settled += not result.exhausted
    print(f"n={n}: {settled} of 10 settle within 50,000 nodes")

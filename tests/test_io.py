import json

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from boxcolour.colouring import ColourPalette, EdgeColouring, unprimed
from boxcolour.graphs import Graph, complete, cycle, path
from boxcolour.io import (
    format_colouring,
    format_edge_list,
    load_graph,
    parse_edge_list,
    parse_graph6,
    read_colouring,
    read_edge_list,
    read_graph6,
    write_colouring,
    write_edge_list,
)


def test_edge_list_roundtrip():
    g = cycle(5)
    assert parse_edge_list(format_edge_list(g)) == g
    # byte-stable: formatting the reparse reproduces the text
    text = format_edge_list(g)
    assert format_edge_list(parse_edge_list(text)) == text


def test_edge_list_comments_and_blanks():
    text = "# a triangle\n3 3\n\n0 1\n1 2\n# middle\n0 2\n"
    assert parse_edge_list(text) == complete(3)


def test_edge_list_errors():
    with pytest.raises(ValueError):
        parse_edge_list("")
    with pytest.raises(ValueError):
        parse_edge_list("3\n0 1\n")
    with pytest.raises(ValueError):
        parse_edge_list("3 2\n0 1\n")
    with pytest.raises(ValueError):
        parse_edge_list("3 1\n0 1 2\n")


def test_edge_list_files(tmp_path):
    g = path(4)
    target = tmp_path / "p4.el"
    write_edge_list(g, target)
    assert read_edge_list(target) == g


def test_graph6_hand_cases():
    assert parse_graph6("A_") == complete(2)
    assert parse_graph6("Bw") == complete(3)
    assert parse_graph6(">>graph6<<A_") == complete(2)
    # n=1 and n=0 corner cases
    assert parse_graph6("@") == Graph(1, [])
    assert parse_graph6("?") == Graph(0, [])


def test_graph6_errors():
    with pytest.raises(ValueError):
        parse_graph6("")
    with pytest.raises(ValueError):
        parse_graph6("B")  # body too short for n=3
    with pytest.raises(ValueError):
        parse_graph6("A" + chr(200))


def _nx_g6(G) -> str:
    return nx.to_graph6_bytes(G, header=False).decode().strip()


def test_graph6_against_networkx_encodings():
    cases = [
        nx.path_graph(5),
        nx.cycle_graph(6),
        nx.complete_graph(7),
        nx.petersen_graph(),
        nx.complete_bipartite_graph(3, 4),
    ]
    for G in cases:
        parsed = parse_graph6(_nx_g6(G))
        want = Graph(G.number_of_nodes(), list(G.edges()))
        assert parsed == want


def test_graph6_long_form_sizes():
    # n >= 63 switches to the '~' + 3-byte size encoding
    G = nx.path_graph(70)
    parsed = parse_graph6(_nx_g6(G))
    assert parsed == Graph(70, list(G.edges()))


@settings(max_examples=30)
@given(st.integers(2, 9), st.data())
def test_graph6_random_graphs_match_networkx(n, data):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    G = nx.Graph()
    G.add_nodes_from(range(n))
    G.add_edges_from(chosen)
    assert parse_graph6(_nx_g6(G)) == Graph(n, chosen)


def test_graph6_file_with_multiple_graphs(tmp_path):
    target = tmp_path / "graphs.g6"
    target.write_text("A_\nBw\n")
    graphs = read_graph6(target)
    assert graphs == [complete(2), complete(3)]
    with pytest.raises(ValueError):
        load_graph(target, "graph6")  # exactly one expected


def test_load_graph_dispatch(tmp_path):
    el = tmp_path / "g.el"
    write_edge_list(cycle(4), el)
    assert load_graph(el, "edgelist") == cycle(4)
    g6 = tmp_path / "g.g6"
    g6.write_text("A_\n")
    assert load_graph(g6, "graph6") == complete(2)
    with pytest.raises(ValueError):
        load_graph(el, "dot")


def test_colouring_file_roundtrip(tmp_path):
    x = EdgeColouring(
        cycle(4),
        [unprimed(0), unprimed(1), unprimed(1), unprimed(2)],
        ColourPalette(3, 1),
    )
    target = tmp_path / "c4.json"
    write_colouring(x, target)
    assert read_colouring(target) == x


@given(st.integers(1, 8), st.integers(0, 12), st.integers(0, 12), st.data())
def test_colouring_writer_matches_the_indenting_encoder(n, g_size, h_size, data):
    # m = 0 whenever the palette is empty; labels run up to 11 and 11'
    palette = ColourPalette(g_size, h_size)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs and palette.size else []
    g = Graph(n, edges)
    colours = [data.draw(st.sampled_from(palette.ordered())) for _ in range(g.m)]
    x = EdgeColouring(g, colours, palette)
    assert format_colouring(x) == json.dumps(x.to_json_dict(), indent=2) + "\n"

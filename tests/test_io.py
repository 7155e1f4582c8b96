import json
import tracemalloc

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from bruteforce import palette_colours
from boxcolour.colouring import ColourPalette, EdgeColouring, unprimed
from boxcolour.graphs import MAX_VERTICES, Graph, complete, cycle, path
from boxcolour.io import (
    format_colouring,
    format_edge_list,
    load_graph,
    parse_edge_list,
    parse_graph6,
    read_colouring,
    read_edge_list,
    read_graph6,
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


@pytest.mark.parametrize(
    "parse, arg",
    [
        (parse_edge_list, "10000000000 0"),
        (parse_edge_list, f"{MAX_VERTICES + 1} 1\n0 1\n"),
        (EdgeColouring.from_json_dict, {"n": 10**10, "palette": {"g": 0, "h": 0}, "edges": []}),
    ],
    ids=["edge-list", "edge-list-limit+1", "colouring-json"],
)
def test_huge_vertex_counts_are_rejected_before_allocating(parse, arg):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="limit"):
            parse(arg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


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
    target.write_text(format_colouring(x))
    assert read_colouring(target) == x


@given(st.integers(1, 8), st.integers(0, 12), st.integers(0, 12), st.data())
def test_colouring_writer_matches_the_indenting_encoder(n, g_size, h_size, data):
    # m = 0 whenever the palette is empty; labels run up to 11 and 11'
    palette = ColourPalette(g_size, h_size)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs and palette.size else []
    g = Graph(n, edges)
    colours = [data.draw(st.sampled_from(palette_colours(palette))) for _ in range(g.m)]
    x = EdgeColouring(g, colours, palette)
    assert format_colouring(x) == json.dumps(x.to_json_dict(), indent=2) + "\n"


# ---------------------------------------------------------------------------
# Malformed input: each reader returns a value or raises ValueError, never
# anything else.  Drawn integers are either small or past the vertex limit,
# which a reader must reject before allocating; counts in between would
# make every example build a graph of up to a million vertices.

_int = st.one_of(st.integers(-3, 20), st.integers(MAX_VERTICES + 1, 10**15))


def _parse_or_reject(parse, arg):
    try:
        return parse(arg)
    except ValueError:
        return None


_junk = st.sampled_from(["", "x", "1.5", "-", "+1", "0x1", "1_0", "٣", "#", "nan", "'"])
_token = st.one_of(_int.map(str), _junk, st.text(max_size=2))


@settings(max_examples=300)
@given(st.lists(st.lists(_token, max_size=3).map(" ".join), max_size=8))
def test_edge_list_parser_rejects_malformed_lines(lines):
    text = "\n".join(lines)
    g = _parse_or_reject(parse_edge_list, text)
    if g is not None:
        assert parse_edge_list(format_edge_list(g)) == g


@settings(max_examples=300)
@given(
    _int,
    st.lists(st.tuples(_int, _int), max_size=8),
    st.sampled_from([0, 0, 0, 1, -1]),
    st.sampled_from(["", "# note\n", "\n"]),
)
def test_edge_list_parser_rejects_bad_graphs(n, edges, miscount, filler):
    body = "".join(f"{filler}{u} {v}\n" for u, v in edges)
    g = _parse_or_reject(parse_edge_list, f"{n} {len(edges) + miscount}\n{body}")
    if g is not None:
        assert g.n == n and set(g.edges) == {(min(e), max(e)) for e in edges}


@settings(max_examples=300)
@given(st.text(max_size=30))
def test_graph6_parser_rejects_arbitrary_text(line):
    _parse_or_reject(parse_graph6, line)


_g6_char = st.characters(min_codepoint=55, max_codepoint=130)


@settings(max_examples=300)
@given(
    st.integers(0, 20),
    st.booleans(),
    st.sampled_from([0, 0, 0, 1, -1]),
    st.sampled_from(["", ">>graph6<<", " "]),
    st.data(),
)
def test_graph6_parser_rejects_bad_bodies(n, long_form, miscount, prefix, data):
    size = "~" + "".join(chr(63 + ((n >> s) & 63)) for s in (12, 6, 0)) if long_form else chr(63 + n)
    length = max(0, (n * (n - 1) // 2 + 5) // 6 + miscount)
    body = data.draw(st.text(_g6_char, min_size=length, max_size=length))
    g = _parse_or_reject(parse_graph6, prefix + size + body)
    if g is not None:
        assert g.n == n


_scalar = st.one_of(
    st.none(), st.booleans(), _int, st.floats(-3, 20), st.text(max_size=3)
)
_json = st.recursive(
    _scalar,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=10,
)
_count = st.one_of(st.integers(-1, 12), st.integers(MAX_VERTICES + 1, 10**15), _scalar)
_label = st.one_of(
    st.integers(-1, 6).map(str),
    st.integers(0, 6).map(lambda i: f"{i}'"),
    st.sampled_from(["", "'", "1''", " 2 ", "-0", "x"]),
    _scalar,
)
_row = st.one_of(st.tuples(_count, _count, _label).map(list), st.lists(_scalar, max_size=4))
_palette = st.one_of(
    st.fixed_dictionaries({"g": _count, "h": _count}),
    st.dictionaries(st.sampled_from(["g", "h", "x"]), _count),
    _scalar,
)
_document = st.fixed_dictionaries(
    {"n": _count, "palette": _palette, "edges": st.one_of(st.lists(_row, max_size=8), _scalar)}
)


@settings(max_examples=500)
@given(_document, st.sets(st.sampled_from(["n", "palette", "edges"]), max_size=1))
def test_colouring_json_rejects_malformed_documents(doc, dropped):
    for key in dropped:
        del doc[key]
    x = _parse_or_reject(EdgeColouring.from_json_dict, doc)
    if x is not None:
        assert EdgeColouring.from_json_dict(x.to_json_dict()) == x


@settings(max_examples=200)
@given(_json)
def test_colouring_json_rejects_arbitrary_values(value):
    _parse_or_reject(EdgeColouring.from_json_dict, value)

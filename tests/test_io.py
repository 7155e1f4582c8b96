import json
import random
import re
import tracemalloc
from unittest import mock

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from bruteforce import (
    colouring_from_json_dict as reference_colouring,
    graph as reference_graph,
)
from boxcolour.colouring import ColourPalette, EdgeColouring, check_acyclic
from boxcolour import graphs, io
from boxcolour.graphs import MAX_EDGES, MAX_VERTICES, Graph, complete, cycle, grid, path
from boxcolour.io import (
    format_aci,
    format_colouring,
    format_edge_list,
    format_exhausted,
    format_violation,
    graph_file_matches,
    load_graph,
    parse_edge_list,
    parse_graph6,
    read_colouring,
    read_edge_list,
    read_graph6,
    write_edge_list,
)


@given(st.integers(0, 40), st.data())
def test_edge_list_roundtrip(n, data):
    # the writer is canonical, which `graph_file_matches` relies on: its
    # text parses back to the graph, isolated vertices and m = 0 included,
    # and formatting the reparse reproduces the text
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    flips = data.draw(st.lists(st.booleans(), min_size=len(chosen), max_size=len(chosen)))
    g = Graph(n, [(v, u) if flip else (u, v) for (u, v), flip in zip(chosen, flips)])
    text = format_edge_list(g)
    back = parse_edge_list(text)
    assert (back.n, back.edges) == (g.n, g.edges)
    assert format_edge_list(back) == text


def test_edge_list_comments_and_blanks():
    text = "# a triangle\n3 3\n\n0 1\n1 2\n# middle\n0 2\n"
    assert parse_edge_list(text) == complete(3)
    # a comment holds any text; tabs separate, and leading zeros are digits
    text = "# caf\u00e9 \u0661 \uff11 +0 1_0\n2 1\n00\t01\n"
    assert parse_edge_list(text) == complete(2)


def test_edge_list_errors():
    with pytest.raises(ValueError):
        parse_edge_list("")
    with pytest.raises(ValueError):
        parse_edge_list("3\n0 1\n")
    with pytest.raises(ValueError):
        parse_edge_list("3 2\n0 1\n")
    with pytest.raises(ValueError):
        parse_edge_list("3 1\n0 1 2\n")
    with pytest.raises(ValueError, match="out of range"):
        parse_edge_list("2 1\n-1 0\n")
    with pytest.raises(ValueError, match="non-negative"):
        parse_edge_list("-1 0\n")
    # what int() rejects keeps int's message
    with pytest.raises(ValueError, match="invalid literal"):
        parse_edge_list("2 1\n1 0x1\n")
    with pytest.raises(ValueError, match="expected edge line"):
        parse_edge_list("3 2\n0 1 2\n0 +1\n")


@pytest.mark.parametrize(
    "text, token",
    [
        ("2 1\n+0 1\n", "+0"),
        ("11 1\n0 1_0\n", "1_0"),
        ("2 1\n0 \u0661\n", "\u0661"),  # Arabic-Indic one
        ("2 1\n0 \uff11\n", "\uff11"),  # fullwidth one
        ("\uff12 1\n0 1\n", "\uff12"),
        ("2 +1\n0 1\n", "+1"),
        # the first bad token is named, before a later malformed line
        ("2 1\n+0 \u0661\n", "+0"),
        ("3 2\n0 +1\n0 1 2\n", "+1"),
        # a tab fails the bulk check as well, and is still a separator
        ("3 2\n0\t1\n1 +2\n", "+2"),
    ],
)
def test_edge_list_numbers_are_ascii_digits(text, token):
    with pytest.raises(ValueError, match=re.escape(f"invalid integer {token!r}")):
        parse_edge_list(text)


_SPELLINGS = {
    "plain": lambda t: t,
    "leading-zero": lambda t: "0" + t,
    "plus": lambda t: "+" + t,
    "underscore": lambda t: "0_" + t,
    "arabic-indic": lambda t: t.translate({48 + d: 0x0660 + d for d in range(10)}),
    "fullwidth": lambda t: t.translate({48 + d: 0xFF10 + d for d in range(10)}),
}
_WRITERS = ("plain", "leading-zero")


@settings(max_examples=200)
@given(st.integers(1, 6), st.data())
def test_edge_list_reads_exactly_the_writers_spelling(n, data):
    # every token of a written graph respelled at random, with random
    # separators: the read succeeds iff every token is ASCII digits, and
    # otherwise names the first token that is not
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    g = Graph(n, data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])
    rows, first_bad = [], None
    for line in format_edge_list(g).splitlines():
        tokens = []
        for token in line.split():
            kind = data.draw(st.sampled_from(sorted(_SPELLINGS)))
            tokens.append(_SPELLINGS[kind](token))
            if kind not in _WRITERS and first_bad is None:
                first_bad = tokens[-1]
        rows.append(data.draw(st.sampled_from([" ", "  ", "\t"])).join(tokens))
    text = "\n".join(rows)
    if first_bad is None:
        assert parse_edge_list(text) == g
    else:
        with pytest.raises(ValueError) as err:
            parse_edge_list(text)
        assert repr(first_bad) in str(err.value)


@pytest.mark.parametrize(
    "text",
    ["3 2\n0 1\n0 1\n", "3 2\n0 1\n1 0\n", "4 4\n0 1\n1 2\n2 3\n2 1\n"],
    ids=["same-orientation", "reversed", "among-others"],
)
def test_edge_list_rejects_an_edge_listed_twice(text):
    with pytest.raises(ValueError, match="distinct"):
        parse_edge_list(text)


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


def test_a_graph_file_unlike_the_writers_text_is_never_formatted(tmp_path):
    # a 40x40 grid relabelled at random, its edges in the generator's order:
    # the header is the grid's, but the first edge line is neither the
    # grid's nor the relabelled graph's, so the file is parsed and compared
    # without building the writer's text of either
    g = grid(40, 40)
    perm = list(range(g.n))
    random.Random(40).shuffle(perm)
    edges = [(perm[u], perm[v]) for u, v in g.edges]
    target = tmp_path / "grid-relabelled.el"
    target.write_text("\n".join([f"{g.n} {g.m}"] + [f"{u} {v}" for u, v in edges]) + "\n")
    relabelled = Graph(g.n, edges)
    with mock.patch.object(io, "format_edge_list", wraps=format_edge_list) as formatter:
        assert graph_file_matches(target, "edgelist", relabelled)
        assert not graph_file_matches(target, "edgelist", g)
    assert formatter.call_count == 0
    # the writer's own text is still matched by its text
    write_edge_list(relabelled, target)
    with mock.patch.object(io, "format_edge_list", wraps=format_edge_list) as formatter:
        assert graph_file_matches(target, "edgelist", relabelled)
        assert not graph_file_matches(target, "edgelist", g)
    assert formatter.call_count == 1


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


def test_graph6_line_over_the_edge_limit_is_refused_before_building_an_edge(monkeypatch):
    # K2897 has 4,194,856 edges, just over MAX_EDGES = 2^22: its 699 KB line
    # is refused on the count of its set bits, with no edge list built
    n = 2897
    assert n * (n - 1) // 2 > MAX_EDGES
    line = "~" + "".join(chr(63 + (n >> s & 63)) for s in (12, 6, 0))
    line += "~" * ((n * (n - 1) // 2 + 5) // 6)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"edge count {n * (n - 1) // 2} exceeds"):
            parse_graph6(line)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * len(line)
    # the count leaves out the last byte's padding bits: K5's 10 bits fill
    # two bytes, and "~" sets all 12
    monkeypatch.setattr(graphs, "MAX_EDGES", 9)
    with pytest.raises(ValueError, match="edge count 10 exceeds the limit of 9$"):
        parse_graph6("D~~")
    k5_less_34 = [(u, v) for v in range(5) for u in range(v) if (u, v) != (3, 4)]
    assert parse_graph6("D~z") == Graph(5, k5_less_34)


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
        [0, 1, 1, 2],
        ColourPalette(3, 1),
    )
    target = tmp_path / "c4.json"
    target.write_text(format_colouring(x))
    assert read_colouring(target) == x


def _draw_colouring(n, g_size, h_size, data):
    # m = 0 whenever the palette is empty; labels run up to 11 and 11'
    palette = ColourPalette(g_size, h_size)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs and palette.size else []
    g = Graph(n, edges)
    colours = [data.draw(st.sampled_from(range(palette.size))) for _ in range(g.m)]
    return EdgeColouring(g, colours, palette)


@given(st.integers(1, 8), st.integers(0, 12), st.integers(0, 12), st.data())
def test_colouring_writer_matches_the_indenting_encoder(n, g_size, h_size, data):
    x = _draw_colouring(n, g_size, h_size, data)
    assert format_colouring(x) == json.dumps(x.to_json_dict(), indent=2) + "\n"


@given(st.integers(1, 6), st.integers(0, 12), st.integers(0, 12), st.data(),
       st.integers(0, 10**12), st.floats(0, 1e17))
def test_aci_writer_matches_the_indenting_encoder(n, g_size, h_size, data, nodes, seconds):
    x = _draw_colouring(n, g_size, h_size, data)
    time_secs = round(seconds, 3)
    doc = {"aci": x.palette.size, "colouring": x.to_json_dict(), "nodes": nodes,
           "time_secs": time_secs}
    assert format_aci(x.palette.size, x, nodes, time_secs) == json.dumps(doc, indent=2) + "\n"


@given(st.integers(0, 10**3), st.integers(0, 10**3), st.integers(0, 10**12), st.floats(0, 1e17))
def test_exhausted_writer_matches_the_encoder(lower, upper, nodes, seconds):
    time_secs = round(seconds, 3)
    doc = {"exhausted": True, "lower": lower, "upper": upper, "nodes": nodes,
           "time_secs": time_secs}
    assert format_exhausted(lower, upper, nodes, time_secs) == json.dumps(doc) + "\n"


def test_violation_writer_matches_the_encoder():
    # both kinds of witness; the cycle alternates a plain and a primed label
    improper = check_acyclic(EdgeColouring(path(3), [0, 0], ColourPalette(1)))
    cyclic = check_acyclic(EdgeColouring(cycle(4), [0, 1, 1, 0], ColourPalette(1, 1)))
    assert [v.to_json_dict()["kind"] for v in (improper, cyclic)] == [
        "not_proper", "bichromatic_cycle"]
    assert cyclic.to_json_dict()["colours"] == ["0", "0'"]
    for v in (improper, cyclic):
        assert format_violation(v) == json.dumps(v.to_json_dict()) + "\n"


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
        assert g.m == len(edges)


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


# ---------------------------------------------------------------------------
# Ingest against the per-edge references: the readers sort once and check in
# bulk, and must still give the graph, the colouring or the error message
# that checking one edge or row at a time gives.


def _outcome(read, *args):
    try:
        return read(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


@st.composite
def _edge_rows(draw, faults=True):
    """(n, edges): a graph's edges in the writer's order, perhaps shuffled
    and reoriented, and with `faults` perhaps repeats, self-loops and
    endpoints out of range mixed in."""
    n = draw(st.integers(0, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rows = sorted(draw(st.sets(st.sampled_from(pairs)))) if pairs else []
    if draw(st.booleans()):
        rows = draw(st.permutations(rows))
        rows = [(v, u) if draw(st.booleans()) else (u, v) for u, v in rows]
    if faults:
        vertex = st.integers(0, max(n - 1, 0))
        fault = st.one_of(
            st.sampled_from(rows).map(lambda e: e[::-1]) if rows else st.nothing(),
            vertex.map(lambda v: (v, v)),
            st.tuples(vertex, st.integers(n, n + 2)),
            st.tuples(st.integers(-3, -1), vertex),
        )
        for extra in draw(st.lists(fault, max_size=3)):
            rows.insert(draw(st.integers(0, len(rows))), extra)
    return n, rows


@settings(max_examples=300)
@given(_edge_rows(), st.booleans())
def test_graph_matches_the_per_edge_reference(case, as_iterator):
    n, rows = case
    assert _outcome(Graph, n, iter(rows) if as_iterator else rows) == _outcome(
        reference_graph, n, rows
    )


_good_label = st.one_of(st.integers(0, 3).map(str), st.integers(0, 1).map(lambda i: f"{i}'"))
_bad_row = st.one_of(
    st.just([0, 1]),
    st.just("0 1 0"),
    st.sampled_from([1.0, True, "1", None]).map(lambda u: [u, 0, "0"]),
    st.sampled_from(["03", " 1", "x", "1''", "", "+1"]).map(lambda label: [0, 1, label]),
    st.just([0, 1, 0]),
)


@st.composite
def _colouring_docs(draw):
    """A colouring document whose rows follow `_edge_rows`, with labels in
    or beyond the palette, and perhaps malformed rows mixed in."""
    faults = draw(st.booleans())
    n, edges = draw(_edge_rows(faults))
    rows = [[u, v, draw(_good_label)] for u, v in edges]
    if faults:
        for bad in draw(st.lists(_bad_row, max_size=1)):
            rows.insert(draw(st.integers(0, len(rows))), bad)
    # without faults the palette holds every label drawn
    g_size = draw(st.integers(0 if faults else 4, 5))
    h_size = draw(st.integers(0 if faults else 2, 3))
    return {"n": n, "palette": {"g": g_size, "h": h_size}, "edges": rows}


@settings(max_examples=400)
@given(_colouring_docs())
def test_colouring_json_matches_the_dict_reference(doc):
    assert _outcome(EdgeColouring.from_json_dict, doc) == _outcome(reference_colouring, doc)

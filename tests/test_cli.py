import hashlib
import json
import os
import pstats
import re
import subprocess
import sys
import time

import networkx as nx
import pytest
from hypothesis import example, given, settings, strategies as st

from boxcolour import cli, graphs, io
from boxcolour.colouring import EdgeColouring, check_acyclic, colours_used
from boxcolour.graphs import Graph, cartesian_product, complete, cycle, grid, hypercube, path
from boxcolour.io import format_colouring, format_edge_list, parse_edge_list
from boxcolour.solver import AciResult, SearchBudget, exact_aci


# a 200 KB colouring file of nothing but opening brackets
DEEP_NESTING = "[" * 200_000


def run(*argv):
    return cli.run(list(argv))


def test_gen_families(capsys):
    assert run("gen", "cycle", "4") == 0
    assert parse_edge_list(capsys.readouterr().out) == cycle(4)
    assert run("gen", "grid", "3", "4") == 0
    assert parse_edge_list(capsys.readouterr().out) == grid(3, 4)
    assert run("gen", "hypercube", "3") == 0
    assert parse_edge_list(capsys.readouterr().out) == hypercube(3)


def test_gen_output_is_byte_stable(capsys):
    assert run("gen", "complete", "4") == 0
    text = capsys.readouterr().out
    assert format_edge_list(parse_edge_list(text)) == text


def test_gen_wrong_arity(capsys):
    assert run("gen", "grid", "3") == 2
    assert "parameter" in capsys.readouterr().err


@pytest.mark.parametrize("sides", [["0", "3"], ["3", "0"], ["-2", "-3"]])
def test_gen_grid_names_a_side_below_one(capsys, sides):
    assert run("gen", "grid", *sides) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: grid {sides[0]}x{sides[1]} needs at least one row and one column\n"


def test_usage_errors(capsys):
    assert run("no-such-command") == 2
    assert run() == 2
    assert run("aci", "missing-file.el") == 2


def test_product_matches_library(tmp_path, capsys):
    a = tmp_path / "a.el"
    b = tmp_path / "b.el"
    a.write_text(format_edge_list(path(3)))
    b.write_text(format_edge_list(cycle(3)))
    assert run("product", "--g", str(a), "--h", str(b)) == 0
    got = parse_edge_list(capsys.readouterr().out)
    assert got == cartesian_product(path(3), cycle(3))[0]


def test_aci_reports_exact_value(tmp_path, capsys):
    f = tmp_path / "c4.el"
    f.write_text(format_edge_list(cycle(4)))
    assert run("aci", str(f)) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["aci"] == 3
    x = EdgeColouring.from_json_dict(data["colouring"])
    assert check_acyclic(x) is None and colours_used(x) == 3
    assert data["nodes"] >= 1 and data["time_secs"] >= 0


def test_aci_lower_only(tmp_path, capsys):
    f = tmp_path / "q3.el"
    f.write_text(format_edge_list(hypercube(3)))
    assert run("aci", str(f), "--lower-only") == 0
    assert capsys.readouterr().out.strip() == "4"
    # K6 is 5-regular, so the degree bound is 6; forest counting gives 7
    k6 = tmp_path / "k6.el"
    k6.write_text(format_edge_list(complete(6)))
    assert run("aci", str(k6), "--lower-only") == 0
    assert capsys.readouterr().out == "7\n"


def test_aci_budget_exhaustion(tmp_path, capsys):
    f = tmp_path / "k7.el"
    f.write_text(format_edge_list(complete(7)))
    assert run("aci", str(f), "--budget-nodes", "5") == 3
    captured = capsys.readouterr()
    data = json.loads(captured.out)
    assert data["exhausted"] is True
    assert data["lower"] <= data["upper"]
    assert "budget" in captured.err


def test_a_nan_time_budget_is_a_usage_error(tmp_path, capsys):
    # no elapsed time exceeds NaN, so accepting it would turn the budget off
    f = tmp_path / "p3.el"
    f.write_text(format_edge_list(path(3)))
    assert run("aci", str(f), "--budget-secs", "nan") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: budget limits must be positive\n"


def test_greedy_command_is_seeded_and_verifies(tmp_path, capsys):
    f = tmp_path / "k5.el"
    f.write_text(format_edge_list(complete(5)))
    assert run("greedy", str(f), "--seed", "1") == 0
    first = capsys.readouterr().out
    x = EdgeColouring.from_json_dict(json.loads(first))
    assert x.graph == complete(5) and check_acyclic(x) is None
    assert run("greedy", str(f), "--seed", "1") == 0
    assert capsys.readouterr().out == first
    # greedy colouring has one entry point; aci has no greedy mode
    assert run("aci", str(f), "--greedy") == 2


@pytest.mark.parametrize("n", [1100, 5000])
def test_aci_on_long_paths(tmp_path, capsys, n):
    # deeper than the recursion limit: the search must not recurse per edge
    f = tmp_path / "path.el"
    f.write_text(format_edge_list(path(n)))
    assert run("aci", str(f)) == 0
    assert json.loads(capsys.readouterr().out)["aci"] == 2


def test_unexpected_exception_is_internal_error(tmp_path, capsys, monkeypatch):
    def broken(g, budget=None):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "exact_aci", broken)
    f = tmp_path / "p3.el"
    f.write_text(format_edge_list(path(3)))
    assert run("aci", str(f)) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "internal error: RuntimeError('boom')" in captured.err


def test_compose_requires_colourings_or_solve(tmp_path, capsys):
    a = tmp_path / "a.el"
    a.write_text(format_edge_list(cycle(4)))
    assert run("compose", "--g", str(a), "--h", str(a)) == 2
    assert "solve-factors" in capsys.readouterr().err


def test_compose_solve_factors(tmp_path, capsys):
    a = tmp_path / "c4.el"
    b = tmp_path / "k2.el"
    a.write_text(format_edge_list(cycle(4)))
    b.write_text(format_edge_list(complete(2)))
    out_graph = tmp_path / "cube.el"
    assert (
        run("compose", "--g", str(a), "--h", str(b), "--solve-factors",
            "--out-graph", str(out_graph)) == 0
    )
    x = EdgeColouring.from_json_dict(json.loads(capsys.readouterr().out))
    assert check_acyclic(x) is None
    assert colours_used(x) <= 4
    assert parse_edge_list(out_graph.read_text()) == cartesian_product(cycle(4), complete(2))[0]


def test_compose_solve_factors_on_a_large_grid(tmp_path, capsys):
    # grid 20x20 is solved by the product tactic, not by a search over its
    # 760 edges, which used to run out the 60 s default budget
    a = tmp_path / "grid.el"
    b = tmp_path / "k5.el"
    a.write_text(format_edge_list(grid(20, 20)))
    b.write_text(format_edge_list(complete(5)))
    assert run("compose", "--g", str(a), "--h", str(b), "--solve-factors") == 0
    x = EdgeColouring.from_json_dict(json.loads(capsys.readouterr().out))
    assert x.graph == cartesian_product(grid(20, 20), complete(5))[0]
    assert check_acyclic(x) is None and colours_used(x) <= 4 + 5


def test_compose_solve_factors_budget_exhaustion(tmp_path, capsys):
    # K6 has 15 edges on 6 vertices, so forest counting starts the search
    # at 7 colours (the degree bound gives 6), and 5 nodes cannot settle
    # that; compose stops at the first factor that runs out
    a = tmp_path / "k6.el"
    b = tmp_path / "k2.el"
    a.write_text(format_edge_list(complete(6)))
    b.write_text(format_edge_list(complete(2)))
    assert (
        run("compose", "--g", str(a), "--h", str(b), "--solve-factors",
            "--budget-nodes", "5") == 3
    )
    captured = capsys.readouterr()
    data = json.loads(captured.out)
    assert (data["exhausted"], data["lower"], data["nodes"]) == (True, 7, 6)
    assert data["upper"] > 7
    assert captured.err == "search budget exhausted\n"


def test_compose_with_explicit_colourings(tmp_path, capsys):
    g, h = path(3), path(4)
    files = {}
    for name, graph in [("g", g), ("h", h)]:
        el = tmp_path / f"{name}.el"
        el.write_text(format_edge_list(graph))
        cj = tmp_path / f"{name}.json"
        cj.write_text(format_colouring(exact_aci(graph).witness))
        files[name] = (el, cj)
    assert (
        run("compose", "--g", str(files["g"][0]), "--h", str(files["h"][0]),
            "--xg", str(files["g"][1]), "--xh", str(files["h"][1])) == 0
    )
    x = EdgeColouring.from_json_dict(json.loads(capsys.readouterr().out))
    assert check_acyclic(x) is None
    assert colours_used(x) == 4


def _counting_edge_list_parses(monkeypatch) -> list:
    parsed = []
    real = io.parse_edge_list

    def counting(text):
        parsed.append(text)
        return real(text)

    monkeypatch.setattr(io, "parse_edge_list", counting)
    return parsed


def _explicit_factors(tmp_path, g: Graph, h: Graph) -> list[str]:
    argv = ["compose"]
    for name, graph in [("g", g), ("h", h)]:
        el = tmp_path / f"{name}.el"
        el.write_text(format_edge_list(graph))
        cj = tmp_path / f"{name}.json"
        cj.write_text(format_colouring(exact_aci(graph).witness))
        argv += [f"--{name}", str(el), f"--x{name}", str(cj)]
    return argv


def test_compose_matches_writer_form_graph_files_without_parsing(tmp_path, capsys, monkeypatch):
    # as in verify, a graph file holding the writer's text for the
    # colouring's graph is that graph
    argv = _explicit_factors(tmp_path, path(3), cycle(5))
    parsed = _counting_edge_list_parses(monkeypatch)
    assert run(*argv) == 0
    assert parsed == []
    x = EdgeColouring.from_json_dict(json.loads(capsys.readouterr().out))
    assert x.graph == cartesian_product(path(3), cycle(5))[0]


def test_compose_parses_and_compares_a_shuffled_graph_file(tmp_path, capsys, monkeypatch):
    argv = _explicit_factors(tmp_path, path(3), cycle(5))
    assert run(*argv) == 0
    want = capsys.readouterr().out
    h = tmp_path / "h.el"
    head, *lines = h.read_text().splitlines()
    flipped = [" ".join(line.split()[::-1]) for line in reversed(lines)]
    h.write_text("\n".join(["# shuffled", head, *flipped]) + "\n")
    parsed = _counting_edge_list_parses(monkeypatch)
    assert run(*argv) == 0
    assert len(parsed) == 1 and capsys.readouterr().out == want
    # a parsed file for another graph is still rejected
    h.write_text("# five vertices\n5 4\n0 1\n1 2\n2 3\n3 4\n")
    assert run(*argv) == 2
    err = f"error: colouring in {tmp_path / 'h.json'} is for a different graph\n"
    assert capsys.readouterr() == ("", err)


def test_compose_rejects_mismatched_colouring(tmp_path, capsys):
    el = tmp_path / "c4.el"
    el.write_text(format_edge_list(cycle(4)))
    wrong = tmp_path / "wrong.json"
    wrong.write_text(format_colouring(exact_aci(path(3)).witness))
    assert (
        run("compose", "--g", str(el), "--h", str(el), "--xg", str(wrong),
            "--xh", str(wrong)) == 2
    )
    assert "different graph" in capsys.readouterr().err


def test_hypercube_command_verifies(tmp_path, capsys):
    assert run("hypercube", "4") == 0
    payload = capsys.readouterr().out
    colouring_file = tmp_path / "q4.json"
    colouring_file.write_text(payload)
    x = EdgeColouring.from_json_dict(json.loads(payload))
    assert colours_used(x) == 5
    assert run("verify", str(colouring_file)) == 0
    assert "ok" in capsys.readouterr().out


def test_verify_failure_prints_witness(tmp_path, capsys):
    bad = {
        "n": 4,
        "palette": {"g": 2, "h": 0},
        "edges": [[0, 1, "0"], [0, 3, "1"], [1, 2, "1"], [2, 3, "0"]],
    }
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(bad))
    assert run("verify", str(f)) == 1
    witness = json.loads(capsys.readouterr().out)
    assert witness["kind"] == "bichromatic_cycle"
    assert witness["cycle"] == [0, 1, 2, 3]


def test_verify_a_star_with_distinct_colours(tmp_path, capsys):
    # K1,20000 with 20,000 colours; the pair scan was once quadratic in them
    n = 20_000
    star = Graph(n + 1, [(0, i) for i in range(1, n + 1)])
    f = tmp_path / "star.json"
    f.write_text(format_colouring(EdgeColouring.single_family(star, range(n), n)))
    t = time.perf_counter()
    assert run("verify", str(f)) == 0
    assert time.perf_counter() - t < 1.0
    assert capsys.readouterr().out == f"ok: {n} colours, acyclic\n"


@pytest.mark.parametrize(
    "doc",
    [
        {"n": 2, "edges": [[0, 1, "0"]]},  # no palette
        [[0, 1, "0"]],  # not an object
        {"n": 2, "palette": [1, 0], "edges": [[0, 1, "0"]]},
        {"n": 2, "palette": {"g": 1, "h": 0}, "edges": [[0, 1]]},
        {"n": 2, "palette": {"g": 1, "h": 0}, "edges": [[0, 1, 0]]},
        {"n": "2", "palette": {"g": 1, "h": 0}, "edges": [[0, 1, "0"]]},
        {"n": 2, "palette": {"g": 1, "h": 0}, "edges": 5},
        # one edge given two colours, in either orientation
        {"n": 2, "palette": {"g": 2, "h": 0}, "edges": [[0, 1, "0"], [1, 0, "1"]]},
        {"n": 2, "palette": {"g": 2, "h": 0}, "edges": [[0, 1, "0"], [0, 1, "0"]]},
        # labels the writer never produces, though int() reads them as 10 and 0
        {"n": 2, "palette": {"g": 11, "h": 0}, "edges": [[0, 1, "1_0"]]},
        {"n": 2, "palette": {"g": 1, "h": 0}, "edges": [[0, 1, " 0"]]},
        # raw text, nested deeper than the JSON decoder recurses
        pytest.param(DEEP_NESTING, id="deep-nesting"),
    ],
)
def test_verify_rejects_malformed_colouring_json(tmp_path, capsys, doc):
    f = tmp_path / "bad.json"
    f.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    assert run("verify", str(f)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_compose_rejects_a_deeply_nested_colouring(tmp_path, capsys):
    el = tmp_path / "p3.el"
    el.write_text(format_edge_list(path(3)))
    deep = tmp_path / "deep.json"
    deep.write_text(DEEP_NESTING)
    assert (
        run("compose", "--g", str(el), "--h", str(el), "--xg", str(deep),
            "--solve-factors") == 2
    )
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "nested too deeply" in captured.err


def test_compose_names_the_malformed_colouring_file(tmp_path, capsys):
    el = tmp_path / "p3.el"
    el.write_text(format_edge_list(path(3)))
    good = tmp_path / "a.json"
    good.write_text(format_colouring(exact_aci(path(3)).witness))
    truncated = tmp_path / "b.json"
    truncated.write_text(good.read_text()[:-5])
    assert (
        run("compose", "--g", str(el), "--h", str(el), "--xg", str(good),
            "--xh", str(truncated)) == 2
    )
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: colouring JSON in {truncated} is malformed: ")
    assert str(good) not in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["aci", "{bad}"],
        ["aci", "{bad}", "--format", "graph6"],
        ["verify", "{bad}"],
        ["verify", "{json}", "--graph", "{bad}"],
        ["verify", "{json}", "--graph", "{bad}", "--format", "graph6"],
        ["compose", "--g", "{el}", "--h", "{el}", "--solve-factors", "--xh", "{bad}"],
        ["product", "--g", "{el}", "--h", "{bad}"],
        ["scan", "--in", "{bad}"],
        ["scan", "--in", "{bad}", "--format", "graph6"],
    ],
    ids=["aci", "aci-graph6", "verify", "verify-graph", "verify-graph6", "compose-xh",
         "product-h", "scan-in", "scan-graph6"],
)
def test_an_input_that_is_not_utf8_is_named(tmp_path, capsys, argv):
    files = {"bad": tmp_path / "bad.bin", "el": tmp_path / "p3.el", "json": tmp_path / "p3.json"}
    files["bad"].write_bytes(b"\xff\xfe")
    files["el"].write_text(format_edge_list(path(3)))
    files["json"].write_text(format_colouring(exact_aci(path(3)).witness))
    assert run(*[a.format(**files) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot decode {files['bad']}: ")
    assert "0xff" in captured.err


def test_verify_cross_checks_graph_file(tmp_path, capsys):
    x = exact_aci(cycle(4)).witness
    cj = tmp_path / "c4.json"
    cj.write_text(format_colouring(x))
    el = tmp_path / "c4.el"
    el.write_text(format_edge_list(cycle(4)))
    assert run("verify", str(cj), "--graph", str(el)) == 0
    capsys.readouterr()
    other = tmp_path / "p4.el"
    other.write_text(format_edge_list(path(4)))
    assert run("verify", str(cj), "--graph", str(other)) == 2


def _verify_outputs(capsys, *argv):
    code = run("verify", *argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _c6_colourings(tmp_path):
    """Colouring files of the 6-cycle, one acyclic and one holding the
    cycle itself in two alternating colours."""
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(format_colouring(exact_aci(cycle(6)).witness))
    bad.write_text(format_colouring(EdgeColouring.single_family(cycle(6), [0, 1, 1, 0, 1, 0], 2)))
    return good, bad


def test_verify_matches_a_writer_form_graph_file_without_parsing(tmp_path, capsys, monkeypatch):
    good, bad = _c6_colourings(tmp_path)
    el = tmp_path / "c6.el"
    el.write_text(format_edge_list(cycle(6)))
    want = [_verify_outputs(capsys, str(f), "--graph", str(el)) for f in (good, bad)]
    assert [code for code, _, _ in want] == [0, 1]

    def refuse(text):
        raise AssertionError("parsed")

    monkeypatch.setattr(io, "parse_edge_list", refuse)
    assert [_verify_outputs(capsys, str(f), "--graph", str(el)) for f in (good, bad)] == want


_C6_ROWS = ["0 1", "1 2", "2 3", "3 4", "4 5", "0 5"]


@pytest.mark.parametrize(
    "text, fmt",
    [
        ("6 6\n" + "\n".join(_C6_ROWS[i] for i in (3, 0, 5, 1, 4, 2)) + "\n", "edgelist"),
        ("6 6\n" + "\n".join(" ".join(row.split()[::-1]) for row in _C6_ROWS) + "\n", "edgelist"),
        ("# a 6-cycle\n6 6\n" + "\n# between\n".join(_C6_ROWS) + "\n", "edgelist"),
        ("6 6\r\n" + "\r\n".join(_C6_ROWS) + "\r\n", "edgelist"),
        (nx.to_graph6_bytes(nx.cycle_graph(6), header=False).decode(), "graph6"),
    ],
    ids=["shuffled", "reoriented", "commented", "crlf", "graph6"],
)
def test_verify_reads_other_layouts_of_the_graph_alike(tmp_path, capsys, text, fmt):
    good, bad = _c6_colourings(tmp_path)
    el = tmp_path / "c6.el"
    el.write_text(format_edge_list(cycle(6)))
    want = [_verify_outputs(capsys, str(f), "--graph", str(el)) for f in (good, bad)]
    other = tmp_path / "c6.other"
    other.write_bytes(text.encode())
    got = [_verify_outputs(capsys, str(f), "--graph", str(other), "--format", fmt)
           for f in (good, bad)]
    assert got == want


def test_verify_rejects_another_graph_with_the_same_header(tmp_path, capsys):
    good, _ = _c6_colourings(tmp_path)
    triangles = tmp_path / "2k3.el"
    triangles.write_text("6 6\n0 1\n0 2\n1 2\n3 4\n3 5\n4 5\n")
    assert _verify_outputs(capsys, str(good), "--graph", str(triangles)) == (
        2, "", "graph file does not match the colouring's graph\n"
    )


@pytest.mark.parametrize(
    "text, message",
    [
        ("6 6\n0 1\n1 2\n", "header announces 6 edges, found 2"),
        ("6 6\n0 1\n1 2\n2 3\n3 4\n4 5\n0 +5\n", "invalid integer '+5'"),
        ("6 6\n0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n0 1\n", "header announces 6 edges, found 7"),
        ("6 6\n0 1\n1 2\n2 3\n3 4\n4 5\n0 1\n", "header announces 6 edges, but only 5 are distinct"),
        ("", "empty edge list"),
    ],
    ids=["short", "plus-sign", "long", "repeat", "empty"],
)
def test_verify_reports_a_malformed_graph_file_as_the_parser_does(tmp_path, capsys, text, message):
    good, _ = _c6_colourings(tmp_path)
    el = tmp_path / "bad.el"
    el.write_text(text)
    assert _verify_outputs(capsys, str(good), "--graph", str(el)) == (
        2, "", f"error: edge list in {el}: {message}\n"
    )


_OUT_OF_RANGE = "edge endpoint out of range: (0, 5) with n=3"


@pytest.mark.parametrize(
    "argv, bad, message",
    [
        (["aci", "{bad}"], "", "edge list in {bad}: empty edge list"),
        (["product", "--g", "{good}", "--h", "{bad}"], "3 1\n0 5\n",
         f"edge list in {{bad}}: {_OUT_OF_RANGE}"),
        (["compose", "--g", "{bad}", "--h", "{good}", "--solve-factors"], "3 1\n0 5\n",
         f"edge list in {{bad}}: {_OUT_OF_RANGE}"),
        (["compose", "--g", "{good}", "--h", "{bad}", "--solve-factors"], "3 1\n0 5\n",
         f"edge list in {{bad}}: {_OUT_OF_RANGE}"),
        (["scan", "--in", "{bad}"], "2 2\n0 1\n",
         "edge list in {bad}: header announces 2 edges, found 1"),
        (["scan", "--in", "{bad}", "--format", "graph6"], "Bw\n\n!\n",
         "graph6 in {bad}, line 3: invalid graph6 character '!'"),
        (["aci", "{bad}", "--format", "graph6"], "A",
         "graph6 in {bad}, line 1: graph6 body length 0 wrong for n=2"),
        (["verify", "{json}", "--graph", "{bad}"], "3 x\n",
         "edge list in {bad}: invalid literal for int() with base 10: 'x'"),
        (["verify", "{json}", "--graph", "{bad}", "--format", "graph6"], "!",
         "graph6 in {bad}, line 1: invalid graph6 character '!'"),
    ],
    ids=["aci", "product-h", "compose-g", "compose-h", "scan-in", "scan-graph6", "aci-graph6",
         "verify-graph", "verify-graph6"],
)
def test_a_graph_file_that_does_not_parse_is_named(tmp_path, capsys, argv, bad, message):
    files = {"bad": tmp_path / "bad.txt", "good": tmp_path / "p3.el", "json": tmp_path / "p3.json"}
    files["bad"].write_text(bad)
    files["good"].write_text(format_edge_list(path(3)))
    files["json"].write_text(format_colouring(exact_aci(path(3)).witness))
    assert run(*[a.format(**files) for a in argv]) == 2
    assert capsys.readouterr() == ("", f"error: {message.format(**files)}\n")


def test_a_graph6_line_over_the_edge_limit_is_an_input_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(graphs, "MAX_EDGES", 9)
    bad = tmp_path / "k5.g6"
    bad.write_text("D~{\n")
    assert run("aci", str(bad), "--format", "graph6") == 2
    message = f"error: graph6 in {bad}, line 1: edge count 10 exceeds the limit of 9\n"
    assert capsys.readouterr() == ("", message)


def test_a_file_with_several_faults_names_the_one_its_reader_checks_first(tmp_path, capsys):
    # the readers check in phases, not line by line: an edge list's range
    # before its repeats, a colouring's repeats before its range
    el = tmp_path / "faults.el"
    el.write_text("3 3\n0 1\n1 0\n0 5\n")
    assert run("aci", str(el)) == 2
    assert capsys.readouterr() == ("", f"error: edge list in {el}: {_OUT_OF_RANGE}\n")
    doc = tmp_path / "faults.json"
    rows = [[0, 5, "0"], [0, 1, "0"], [1, 0, "1"]]
    doc.write_text(json.dumps({"n": 3, "palette": {"g": 2, "h": 0}, "edges": rows}))
    assert run("verify", str(doc)) == 2
    err = f"error: colouring JSON in {doc}: edge (0, 1) is listed twice\n"
    assert capsys.readouterr() == ("", err)


@pytest.mark.parametrize("flag", ["--xg", "--xh"])
def test_compose_names_a_colouring_file_with_bad_content(tmp_path, capsys, flag):
    el = tmp_path / "p3.el"
    el.write_text(format_edge_list(path(3)))
    good = tmp_path / "good.json"
    good.write_text(format_colouring(exact_aci(path(3)).witness))
    bad = tmp_path / "bad.json"
    bad.write_text("[]")
    files = {"--xg": good, "--xh": good, flag: bad}
    argv = ["compose", "--g", str(el), "--h", str(el)]
    for name, f in files.items():
        argv += [name, str(f)]
    assert run(*argv) == 2
    assert capsys.readouterr() == (
        "", f"error: colouring JSON in {bad}: colouring JSON must be an object\n"
    )


def test_scan_corpus(capsys):
    assert run("scan", "--max-n", "4") == 0
    captured = capsys.readouterr()
    rows = captured.out.strip().splitlines()
    assert rows[0] == "n,m,delta,aci,excess,nodes,time_ms"
    assert len(rows) == 1 + 1 + 1 + 2 + 6  # header plus classes for n=1..4
    assert "max excess" in captured.err
    # the triangle is the first graph with excess 1
    assert any(row.startswith("3,3,2,3,1,") for row in rows)


def test_aci_reads_graph6(tmp_path, capsys):
    f = tmp_path / "k3.g6"
    f.write_text("Bw\n")
    assert run("aci", str(f), "--format", "graph6") == 0
    assert json.loads(capsys.readouterr().out)["aci"] == 3


def test_scan_graph6_stream(tmp_path, capsys):
    f = tmp_path / "graphs.g6"
    f.write_text("A_\nBw\n")
    assert run("scan", "--in", str(f), "--format", "graph6") == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert len(rows) == 3
    assert rows[1].startswith("2,1,1,1,0,")
    assert rows[2].startswith("3,3,2,3,1,")


def test_scan_needs_exactly_one_source(capsys):
    assert run("scan") == 2
    assert run("scan", "--max-n", "3", "--in", "x.g6") == 2
    capsys.readouterr()


@pytest.mark.parametrize("max_n", ["0", "-3"])
def test_scan_without_vertices_is_an_input_error(capsys, max_n):
    assert run("scan", "--max-n", max_n) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: need at least one vertex\n"


@pytest.mark.parametrize("text", ["", "\n  \n\t\n"], ids=["empty", "blank"])
def test_scan_of_a_graph6_file_without_graphs_is_an_input_error(tmp_path, capsys, text):
    # as scan --max-n 0 and aci on the same file are
    f = tmp_path / "none.g6"
    f.write_text(text)
    assert run("scan", "--in", str(f), "--format", "graph6") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: no graphs in {f}\n"
    assert run("aci", str(f), "--format", "graph6") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: expected one graph in {f}, found 0\n"


def test_scan_past_the_corpus_limit_is_an_input_error_before_enumerating(capsys):
    start = time.perf_counter()
    assert run("scan", "--max-n", "10") == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: corpus enumeration stops at 9 vertices, got 10\n"


def test_scan_budget_exhaustion(tmp_path, capsys):
    assert run("scan", "--max-n", "5", "--budget-nodes", "2") == 3
    captured = capsys.readouterr()
    rows = captured.out.strip().splitlines()
    assert rows[0] == "n,m,delta,aci,excess,nodes,time_ms"
    # every graph gets a row; one whose budget ran out leaves aci and
    # excess empty and has its bounds on stderr
    assert len(rows) == 1 + 31
    open_rows = [row for row in rows[1:] if row.split(",")[3:5] == ["", ""]]
    assert 0 < len(open_rows) == captured.err.count("budget exhausted on a graph")
    assert f"budget exhausted on {len(open_rows)} of 31 graphs" in captured.err
    # the triangle's bounds meet, so it is solved although its budget ran out
    assert rows[4].startswith("3,3,2,3,1,")


@pytest.mark.parametrize(
    "argv, text",
    [
        (["aci"], "10000000000 0\n"),
        (["verify"], '{"n": 10000000000, "palette": {"g": 0, "h": 0}, "edges": []}'),
        (["gen", "path", "10000000000"], None),
        (["hypercube", "30"], None),
        # within the vertex limit, past the edge limit
        (["gen", "complete", "1048576"], None),
        (["hypercube", "20"], None),
        (["gen", "hypercube", "20"], None),
    ],
    ids=["aci-edge-list", "verify-json", "gen-path", "hypercube",
         "gen-complete-edges", "hypercube-edges", "gen-hypercube-edges"],
)
def test_huge_vertex_counts_are_input_errors(tmp_path, capsys, argv, text):
    if text is not None:
        f = tmp_path / "huge"
        f.write_text(text)
        argv = argv + [str(f)]
    assert run(*argv) == 2
    assert "limit of" in capsys.readouterr().err


@pytest.mark.parametrize("token", ["+0", "1_0", "\u0661", "\uff11"])
def test_integers_the_writer_never_emits_are_input_errors(tmp_path, capsys, token):
    # int() alone takes each of these, and would read "0 1_0" as the edge (0, 10)
    f = tmp_path / "g.el"
    f.write_text(f"11 1\n0 {token}\n", encoding="utf-8")
    assert run("aci", str(f)) == 2
    assert f"invalid integer {token!r}" in capsys.readouterr().err
    # any text may sit in a comment
    f.write_text(f"# {token} \u00e9\n2 1\n0 1\n", encoding="utf-8")
    assert run("aci", str(f), "--lower-only") == 0
    assert capsys.readouterr().out == "1\n"


def test_config_file_arguments(tmp_path, capsys):
    f = tmp_path / "k7.el"
    f.write_text(format_edge_list(complete(7)))
    cfg = tmp_path / "budget.cfg"
    cfg.write_text("# tiny budget\nbudget-nodes=5\n")
    assert run("aci", str(f), f"@{cfg}") == 3


def _steady(text):
    """Output with its time fields masked: aci's time_secs and scan's time_ms."""
    # csv ends each row with \r\n
    return re.sub(r",[0-9.]+\r$", ",T", _without_times(text), flags=re.M)


_COMMAND_NAMES = ["gen", "product", "aci", "greedy", "compose", "hypercube", "verify", "scan"]


@pytest.mark.parametrize(
    "argv",
    [
        # valid
        ["gen", "path", "3"],
        ["product", "--g", "{k4}", "--h", "{k2}"],
        ["aci", "{k4}"],
        ["greedy", "{k4}"],
        ["compose", "--g", "{k4}", "--h", "{k2}", "--solve-factors"],
        ["hypercube", "3"],
        ["verify", "{json}"],
        ["scan", "--max-n", "3"],
        # a required argument missing
        ["gen"],
        ["product", "--g", "{k4}"],
        ["aci"],
        ["greedy"],
        ["compose", "--h", "{k2}"],
        ["hypercube"],
        ["verify"],
        ["scan", "--max-n"],
        # a bad type or choice
        ["gen", "star", "3"],
        ["product", "--g", "{k4}", "--h", "{k2}", "--format", "dot"],
        ["aci", "{k4}", "--budget-nodes", "many"],
        ["greedy", "{k4}", "--seed", "x"],
        ["compose", "--g", "{k4}", "--h", "{k2}", "--budget-secs", "soon"],
        ["hypercube", "three"],
        ["verify", "{json}", "--format", "dot"],
        ["scan", "--max-n", "x"],
        # help
        *([name, "-h"] for name in _COMMAND_NAMES),
        ["--help"],
        ["-h", "aci"],
        [],
        # what the subcommand table leaves to the full parser
        ["bogus"],
        ["aci", "{k4}", "--bogus"],
        ["aci", "--bogus", "{k4}"],
        ["aci", "{k4}", "extra"],
        ["aci", "{k7}", "--budget-n", "5"],
        ["@{args}"],
        ["aci", "{k7}", "@{budget}"],
        ["aci", "--", "{k4}"],
        ["aci", "{k4}", "--h"],
        ["aci", "{k4}", "--format", "edgelist", "--format", "graph6"],
        ["aci", "{k4}", "--lower-only=yes"],
        ["gen", "grid", "-2", "-3"],
        ["hypercube", "-1"],
        # forms the table reads itself
        ["compose", "--g={k4}", "--h={k2}", "--solve-factors"],
        ["aci", "--lower-only", "{k4}"],
        ["aci", "{k4}", "--budget-secs", "nan"],
        ["hypercube", "\u0661"],
    ],
    ids=lambda argv: " ".join(argv) or "no-arguments",
)
def test_run_parses_as_the_full_parser_does(tmp_path, capsys, monkeypatch, argv):
    files = {name: tmp_path / f"{name}.el" for name in ("k2", "k4", "k7")}
    for name, g in (("k2", path(2)), ("k4", complete(4)), ("k7", complete(7))):
        files[name].write_text(format_edge_list(g))
    files["json"] = tmp_path / "c4.json"
    files["json"].write_text(format_colouring(exact_aci(cycle(4)).witness))
    files["args"] = tmp_path / "args.cfg"
    files["args"].write_text(f"aci\n{files['k7']}\nbudget-nodes=5\n")
    files["budget"] = tmp_path / "budget.cfg"
    files["budget"].write_text("budget-nodes=5\n")
    argv = [a.format(**files) for a in argv]
    code = cli.run(argv)
    got = capsys.readouterr()
    monkeypatch.setattr(cli, "_parse_args", lambda argv: cli._build_parser().parse_args(argv))
    want_code = cli.run(argv)
    want = capsys.readouterr()
    assert code == want_code
    assert _steady(got.out) == _steady(want.out)
    assert got.err == want.err


def test_a_well_formed_run_builds_no_parser_and_a_declined_one_the_full_parser_once(
        tmp_path, capsys, monkeypatch):
    f = tmp_path / "k4.el"
    f.write_text(format_edge_list(complete(4)))
    built = []
    build = cli._build_parser

    def spy():
        built.append(build())
        return built[-1]

    monkeypatch.setattr(cli, "_build_parser", spy)
    assert run("aci", str(f)) == 0
    assert built == []
    # a leftover argument is reported by the full parser
    assert run("aci", str(f), "extra") == 2
    assert len(built) == 1
    assert "{gen,product,aci," in capsys.readouterr().err


# values each kind of argument takes, refuses or reads oddly
_VALUES = {
    int: ["3", "0", "\u0661", "+3", "1_0", "-3", "x", "1.5", ""],
    float: ["1.5", "nan", "inf", "3", "-1.5", "x", ""],
    str: ["g.el", "", "x=y", "a b", "-", "-g.el", "@x", "--h"],
}
# tokens argparse reads in its own way: help, abbreviations, the end of options
_ODD = ["-h", "--h", "--he", "--help", "--budget-n", "--", "@x", "-x", "--bogus", "extra"]


@st.composite
def _command_lines(draw):
    """A subcommand's positionals and a few of its options, read off the
    table, with values its types and choices take or refuse, in any order;
    then perhaps an odd token, a repeated option or another first word."""
    name = draw(st.sampled_from(_COMMAND_NAMES))
    arguments = next(c[3] for c in cli._COMMANDS if c[0] == name)

    def value(keywords):
        choices = keywords.get("choices", [])
        return draw(st.sampled_from([*choices, "dot"] if choices else
                                    _VALUES[keywords.get("type", str)]))

    positionals, options = [], []
    for flags, keywords in arguments:
        flag = flags[0]
        if not flag.startswith("-"):
            count = draw(st.integers(1, 3)) if keywords.get("nargs") == "+" else 1
            positionals += [value(keywords) for _ in range(count)]
        elif draw(st.integers(0, 9)) < (9 if keywords.get("required") else 4):
            if keywords.get("action") == "store_true":
                options.append(draw(st.sampled_from([[flag], [flag + "=x"]])))
            else:
                text = value(keywords)
                options.append(draw(st.sampled_from([[flag, text], [f"{flag}={text}"]])))
    pieces = draw(st.permutations([positionals, *options]))
    flags = [piece[0] for piece in options]
    for token in draw(st.lists(st.sampled_from(_ODD + flags), max_size=2)):
        pieces.insert(draw(st.integers(0, len(pieces))), [token])
    first = draw(st.sampled_from([name] * 6 + ["bogus", "ac", "-h", "@x"]))
    return [first, *(token for piece in pieces for token in piece)]


def _comparable(fields):
    # nan is not equal to itself
    return {k: "nan" if v != v else v for k, v in fields.items()}


@settings(max_examples=400, deadline=None)
@given(_command_lines())
@example(["aci", "g.el", "--format=graph6", "--budget-secs", "nan", "--lower-only"])
@example(["gen", "grid", "\u0661", "3"])
def test_the_table_reads_a_command_line_as_the_full_parser_does(argv):
    plain = cli._parse_plain(argv)
    if plain is not None:
        assert _comparable(vars(plain)) == _comparable(vars(cli._build_parser().parse_args(argv)))


# Every command line shape the CI workflow and the benchmark's workloads run.
_PLAIN_ARGVS = [
    ["gen", "complete", "8"],
    ["gen", "grid", "40", "40"],
    ["gen", "hypercube", "6"],
    ["aci", "k8.el"],
    ["aci", "k7.el", "--budget-nodes", "5"],
    ["aci", "q6.el", "--budget-nodes", "5000000", "--budget-secs", "150"],
    ["product", "--g", "k3.el", "--h", "k2.el"],
    ["compose", "--g", "p40.el", "--h", "p40.el", "--solve-factors"],
    ["compose", "--g", "grid40.el", "--h", "k5.el", "--xg", "grid40.json", "--xh", "k5.json"],
    ["compose", "--g", "grid40.el", "--h", "k5.el", "--xg", "grid40.json", "--xh", "k5.json",
     "--out-graph", "gridxk5.el"],
    ["hypercube", "11"],
    ["verify", "q3.json"],
    ["verify", "gridxk5.json", "--graph", "gridxk5.el"],
    ["scan", "--max-n", "7"],
]


@pytest.mark.parametrize("argv", _PLAIN_ARGVS, ids=" ".join)
def test_ci_and_benchmark_command_lines_are_read_without_argparse(argv):
    plain = cli._parse_plain(argv)
    assert plain is not None
    assert vars(plain) == vars(cli._build_parser().parse_args(argv))


@pytest.mark.parametrize(
    "argv", [["aci", "k8.el"], ["compose", "--g", "a.el", "--h", "b.el"], ["scan", "--max-n", "7"]],
    ids=" ".join,
)
def test_the_default_budget_is_search_budgets_own(argv):
    for args in (cli._parse_plain(argv), cli._build_parser().parse_args(argv)):
        assert cli._budget(args) == SearchBudget()
        assert (type(args.budget_nodes), type(args.budget_secs)) == (int, float)


@pytest.mark.parametrize(
    "g",
    [Graph(0, []), Graph(1, []), path(2), complete(6), hypercube(4)],
    ids=["K0", "K1", "K2", "K6", "Q4"],
)
def test_aci_prints_the_indenting_encoders_bytes(tmp_path, capsys, g):
    f = tmp_path / "g.el"
    f.write_text(format_edge_list(g))
    assert run("aci", str(f)) == 0
    out = capsys.readouterr().out
    result = exact_aci(g)
    doc = {
        "aci": result.aci,
        "colouring": result.witness.to_json_dict(),
        "nodes": result.nodes,
        "time_secs": json.loads(out)["time_secs"],
    }
    assert out == json.dumps(doc, indent=2) + "\n"


def test_an_exhausted_budget_prints_the_encoders_line(tmp_path, capsys):
    f = tmp_path / "k7.el"
    f.write_text(format_edge_list(complete(7)))
    assert run("aci", str(f), "--budget-nodes", "5") == 3
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert list(doc) == ["exhausted", "lower", "upper", "nodes", "time_secs"]
    assert doc["exhausted"] is True
    assert out == json.dumps(doc) + "\n"
    for seconds in (0.0, 0.0004, 2.5, 1234.56789, 1e16):
        result = AciResult(None, 12, seconds, 7, 9, "greedy")
        assert cli._report_exhausted(result) == 3
        doc = {"exhausted": True, "lower": 7, "upper": 9, "nodes": 12,
               "time_secs": round(seconds, 3)}
        assert capsys.readouterr().out == json.dumps(doc) + "\n"


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "boxcolour.cli", "gen", "path", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert parse_edge_list(proc.stdout) == path(3)


# Run in a child interpreter: at exit, write the names in sys.modules to stderr.
_LIST_MODULES = (
    "import atexit, sys; atexit.register(lambda: sys.stderr.write(' '.join(sys.modules)))"
)


def _modules_loaded(code):
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    return proc, set(proc.stderr.split())


def _run_module(argv):
    """`python -m boxcolour.cli *argv`, with the modules it loaded."""
    return _modules_loaded(
        _LIST_MODULES
        + f"; import runpy; sys.argv = {['boxcolour', *argv]!r}"
        + "; runpy.run_module('boxcolour.cli', run_name='__main__', alter_sys=True)"
    )


def test_aci_start_up_skips_dataclasses_and_the_scan_only_modules(tmp_path):
    f = tmp_path / "k4.el"
    f.write_text(format_edge_list(complete(4)))
    _, bare = _modules_loaded(_LIST_MODULES)
    proc, loaded = _run_module(["aci", str(f)])
    assert proc.returncode == 0 and json.loads(proc.stdout)["aci"] == 5
    assert "boxcolour.solver" in loaded
    # compared with a bare interpreter, so a site hook importing one is no failure
    heavy = {"dataclasses", "inspect", "csv", "boxcolour.corpus"}
    assert heavy & (loaded - bare) == set()


def test_a_well_formed_run_imports_no_argparse_and_help_or_an_error_does(
        tmp_path, capsys, monkeypatch):
    k2, k4, c4 = tmp_path / "k2.el", tmp_path / "k4.el", tmp_path / "c4.json"
    k2.write_text(format_edge_list(path(2)))
    k4.write_text(format_edge_list(complete(4)))
    c4.write_text(format_colouring(exact_aci(cycle(4)).witness))
    _, bare = _modules_loaded(_LIST_MODULES)
    parsing = {"argparse", "gettext", "locale"}
    for argv in (["aci", str(k4)], ["gen", "grid", "3", "3"], ["hypercube", "3"],
                 ["verify", str(c4)], ["compose", "--g", str(k2), "--h", str(k2),
                                       "--solve-factors"], ["scan", "--max-n", "3"]):
        proc, loaded = _run_module(argv)
        assert proc.returncode == 0, proc.stderr
        assert "boxcolour.io" in loaded
        # compared with a bare interpreter, so a site hook importing one is no failure
        assert parsing & (loaded - bare) == set(), argv
    # help and errors are argparse's own text, at a fixed width
    monkeypatch.setenv("COLUMNS", "80")
    for argv, code in ((["--help"], 0), (["aci", str(k4), "--bogus"], 2)):
        proc, loaded = _run_module(argv)
        assert proc.returncode == code
        assert "argparse" in loaded
        with pytest.raises(SystemExit):
            cli._build_parser().parse_args(argv)
        want = capsys.readouterr()
        assert proc.stdout == want.out
        # the module names follow what the run wrote to stderr
        assert proc.stderr.startswith(want.err)


def test_only_a_json_reader_or_a_witness_imports_json(tmp_path):
    k4 = tmp_path / "k4.el"
    k4.write_text(format_edge_list(complete(4)))
    cj = tmp_path / "c4.json"
    cj.write_text(format_colouring(exact_aci(cycle(4)).witness))
    _, bare = _modules_loaded(_LIST_MODULES)
    encoder = {"json", "json.decoder", "json.encoder"}
    for argv, imports_json in ((["aci", str(k4)], False), (["hypercube", "3"], False),
                               (["verify", str(cj)], True)):
        proc, loaded = _run_module(argv)
        assert proc.returncode == 0, proc.stderr
        assert encoder & (loaded - bare) == (encoder if imports_json else set()), argv


def test_the_cli_imports_no_unused_standard_modules_without_site(tmp_path):
    # `python -S` runs no site hook, so no .pth file preloads what the
    # package would otherwise import only for annotations, paths or a shuffle
    env = {**os.environ, "PYTHONPATH": os.path.join(os.path.dirname(__file__), "..", "src")}
    unused = ["typing", "re", "enum", "pathlib", "random", "functools"]
    code = f"import sys, boxcolour.cli; print([m for m in {unused!r} if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
    # a non-zero seed is the one path that imports random, late
    f = tmp_path / "grid6x6.el"
    f.write_text(format_edge_list(grid(6, 6)))
    argv = ["greedy", str(f), "--seed", "1"]
    proc = subprocess.run([sys.executable, "-S", "-m", "boxcolour.cli", *argv], capture_output=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    digest = hashlib.sha256(proc.stdout).hexdigest()
    assert digest == "2a5cb4e90e60ecd3aee99901d92d4df365fcaf0c7f4a51e4fb902170ee804592"


def _assert_output_error(tmp_path, argv, sink, stderr_too, buffered):
    """Run the CLI with stdout, and stderr too if `stderr_too`, on `sink`:
    "pipe", a pipe whose reader has gone; "full", /dev/full, where every
    write fails with ENOSPC; or "closed", no open file at all.  It exits 2
    without a traceback."""
    f = tmp_path / "k4.el"
    f.write_text(format_edge_list(complete(4)))
    argv = [str(f) if a == "K4" else a for a in argv]
    # a block-buffered stdout meets the failing sink later than an unbuffered one
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    if sink == "pipe":
        read_end, fd = os.pipe()
        os.close(read_end)  # every write to the pipe now fails with EPIPE
    elif sink == "full":
        fd = os.open("/dev/full", os.O_WRONLY)
    else:
        fd = subprocess.DEVNULL  # closed in the child before it starts

    def close_sink():
        os.close(1)
        if stderr_too:
            os.close(2)

    try:
        proc = subprocess.run(
            [sys.executable, "-m", "boxcolour.cli", *argv],
            stdout=fd,
            stderr=fd if stderr_too else subprocess.PIPE,
            preexec_fn=close_sink if sink == "closed" else None,
            env=env,
        )
    finally:
        if sink != "closed":
            os.close(fd)
    assert proc.returncode == 2
    if not stderr_too:
        # the run's own stderr output and an `error:` report may remain
        assert b"Traceback" not in proc.stderr
        assert b"internal error" not in proc.stderr


_OUTPUTS = [["aci", "K4"], ["scan", "--max-n", "5"], ["hypercube", "8"]]
_OUTPUT_IDS = ["aci-short-output", "scan", "hypercube-long-output"]


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("stderr_too", [False, True], ids=["stdout", "stdout-and-stderr"])
@pytest.mark.parametrize("argv", _OUTPUTS, ids=_OUTPUT_IDS)
def test_a_closed_pipe_exits_2_without_a_traceback(tmp_path, argv, stderr_too, buffered):
    _assert_output_error(tmp_path, argv, "pipe", stderr_too, buffered)


_NEEDS_DEV_FULL = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")


# a missing file's error report is the one write when stderr fails too, and
# must not turn into exit 1, which claims a failed verification
@pytest.mark.parametrize("sink", [pytest.param("full", marks=_NEEDS_DEV_FULL), "closed"])
@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("stderr_too", [False, True], ids=["stdout", "stdout-and-stderr"])
@pytest.mark.parametrize("argv", [*_OUTPUTS, ["aci", "missing.el"]],
                         ids=[*_OUTPUT_IDS, "aci-missing-file"])
def test_a_full_device_or_a_closed_stdout_exits_2_without_a_traceback(
    tmp_path, argv, stderr_too, buffered, sink
):
    _assert_output_error(tmp_path, argv, sink, stderr_too, buffered)


# The CLI ends with os._exit, which flushes nothing itself; a child without
# PYTHONUNBUFFERED keeps its stdout block-buffered, as in a shell pipeline.
_BUFFERED_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}

# The end of a child's code: run the CLI as `python -m boxcolour.cli` does.
_AS_MAIN = (
    "; import runpy; sys.argv[0] = 'boxcolour'"
    "; runpy.run_module('boxcolour.cli', run_name='__main__', alter_sys=True)"
)

# Run in a child interpreter: the solver `aci` calls raises, as a bug would.
_BROKEN_ACI = "import sys, boxcolour.solver; boxcolour.solver.exact_aci = None" + _AS_MAIN


def _without_times(text):
    return re.sub(r'"time_secs": [0-9.]+', '"time_secs": T', text)


@pytest.mark.parametrize("sink", ["file", "pipe"])
@pytest.mark.parametrize(
    "case, code",
    [("hypercube-12", 0), ("rejecting-verify", 1), ("input-error", 2),
     ("budget", 3), ("internal-error", 4)],
)
def test_a_cli_process_prints_and_exits_as_run_does(tmp_path, capsys, monkeypatch,
                                                   case, code, sink):
    k7 = tmp_path / "k7.el"
    k7.write_text(format_edge_list(complete(7)))
    rejected = tmp_path / "rejected.json"
    rejected.write_text(json.dumps({
        "n": 4, "palette": {"g": 2, "h": 0},
        "edges": [[0, 1, "0"], [0, 3, "1"], [1, 2, "1"], [2, 3, "0"]],
    }))
    not_json = tmp_path / "not.json"
    not_json.write_text('{"n": 2} {"n": 3}')
    argv = {
        # its 1.1 MB of output is far more than a pipe or stdio buffer holds
        "hypercube-12": ["hypercube", "12"],
        "rejecting-verify": ["verify", str(rejected)],
        "input-error": ["verify", str(not_json)],
        "budget": ["aci", str(k7), "--budget-nodes", "5"],
        "internal-error": ["aci", str(k7)],
    }[case]
    if case == "internal-error":
        monkeypatch.setattr(cli, "exact_aci", None)
        child = [sys.executable, "-c", _BROKEN_ACI, *argv]
    else:
        child = [sys.executable, "-m", "boxcolour.cli", *argv]
    assert run(*argv) == code
    want = capsys.readouterr()
    out = tmp_path / "stdout"
    with open(out, "wb") as f:
        proc = subprocess.run(child, stdout=f if sink == "file" else subprocess.PIPE,
                              stderr=subprocess.PIPE, env=_BUFFERED_ENV)
    stdout = out.read_bytes() if sink == "file" else proc.stdout
    assert proc.returncode == code
    assert _without_times(stdout.decode()) == _without_times(want.out)
    assert proc.stderr.decode() == want.err


def test_a_cli_process_flushes_what_its_atexit_handlers_write():
    code = (
        "import atexit, sys"
        "; atexit.register(lambda: (sys.stdout.write('out at exit'), sys.stderr.write('err at exit')))"
        + _AS_MAIN
    )
    proc = subprocess.run([sys.executable, "-c", code, "gen", "path", "2"],
                          capture_output=True, text=True, env=_BUFFERED_ENV)
    assert proc.returncode == 0
    assert proc.stdout == format_edge_list(path(2)) + "out at exit"
    assert proc.stderr == "err at exit"


def test_a_profiled_cli_run_still_writes_its_profile(tmp_path):
    # profilers and tracers report from the interpreter's own exit, which a
    # CLI run under one therefore keeps
    k6 = tmp_path / "k6.el"
    k6.write_text(format_edge_list(complete(6)))
    prof = tmp_path / "aci.prof"
    proc = subprocess.run(
        [sys.executable, "-m", "cProfile", "-o", str(prof), "-m", "boxcolour.cli",
         "aci", str(k6)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0 and json.loads(proc.stdout)["aci"] == 7
    stats = pstats.Stats(str(prof)).stats
    assert any(name == "_first_colouring" for _, _, name in stats)

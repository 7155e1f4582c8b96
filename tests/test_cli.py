import json
import subprocess
import sys

import pytest

from boxcolour import cli
from boxcolour.colouring import EdgeColouring, check_acyclic, colours_used
from boxcolour.graphs import cartesian_product, complete, cycle, grid, hypercube, path
from boxcolour.io import format_colouring, format_edge_list, parse_edge_list
from boxcolour.solver import exact_aci


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


def test_aci_budget_exhaustion(tmp_path, capsys):
    f = tmp_path / "k7.el"
    f.write_text(format_edge_list(complete(7)))
    assert run("aci", str(f), "--budget-nodes", "5") == 3
    captured = capsys.readouterr()
    data = json.loads(captured.out)
    assert data["exhausted"] is True
    assert data["lower"] <= data["upper"]
    assert "budget" in captured.err


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


def test_vertex_color_is_proper(tmp_path, capsys):
    f = tmp_path / "c5.el"
    f.write_text(format_edge_list(cycle(5)))
    assert run("vertex-color", str(f)) == 0
    mapping = json.loads(capsys.readouterr().out)
    colours = [mapping[str(v)] for v in range(5)]
    for u, v in cycle(5).edges:
        assert colours[u] != colours[v]
    assert len(set(colours)) <= 3


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
    ],
)
def test_verify_rejects_malformed_colouring_json(tmp_path, capsys, doc):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(doc))
    assert run("verify", str(f)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


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


def test_config_file_arguments(tmp_path, capsys):
    f = tmp_path / "k7.el"
    f.write_text(format_edge_list(complete(7)))
    cfg = tmp_path / "budget.cfg"
    cfg.write_text("# tiny budget\nbudget-nodes=5\n")
    assert run("aci", str(f), f"@{cfg}") == 3


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "boxcolour.cli", "gen", "path", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert parse_edge_list(proc.stdout) == path(3)

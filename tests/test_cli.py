import json
import os
import subprocess
import sys

import pytest

import mcps
from mcps import parse_edge_list, to_edge_list
from mcps.cli import main
from mcps.generators import example_reduction_artifact, fixtures


@pytest.fixture
def w_file(tmp_path):
    path = tmp_path / "w.el"
    path.write_text(to_edge_list(fixtures()["W"]))
    return str(path)


@pytest.fixture
def wplus_file(tmp_path):
    path = tmp_path / "wplus.el"
    path.write_text(to_edge_list(fixtures()["w_plus"]))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_solve_oracle_on_w_plus(capsys, wplus_file):
    code, out, _ = run(capsys, "solve", "--input", wplus_file, "--alpha", "1/2",
                       "--mode", "oracle")
    assert code == 0
    payload = json.loads(out)
    # unique 5-edge MED plus two extra edges; see the oracle tests
    assert payload["objective"] == 7
    assert payload["algorithm"] == "oracle"
    assert payload["mcps_star"] == 2
    assert payload["alpha"] == "1/2"


def test_solve_writes_dot(capsys, tmp_path, wplus_file):
    dot_path = tmp_path / "sol.dot"
    code, out, _ = run(capsys, "solve", "--input", wplus_file, "--alpha", "1/2",
                       "--mode", "oracle", "--dot", str(dot_path))
    assert code == 0
    dot = dot_path.read_text()
    assert dot.count("[color=red]") == json.loads(out)["objective"]


def test_check_full_set_feasible(capsys, tmp_path, w_file):
    sol = tmp_path / "full.json"
    sol.write_text(json.dumps({"edges": [[u, v] for u, v in fixtures()["W"].edges]}))
    code, out, _ = run(capsys, "check", "--input", w_file, "--solution", str(sol),
                       "--alpha", "1/2")
    assert code == 0
    assert json.loads(out)["feasible"] is True


def test_check_infeasible_solution_exits_1(capsys, tmp_path, wplus_file):
    med_pairs = [[1, 2], [0, 4], [4, 1], [2, 5], [5, 3]]
    sol = tmp_path / "med.json"
    sol.write_text(json.dumps({"edges": med_pairs}))
    code, out, _ = run(capsys, "check", "--input", wplus_file, "--solution", str(sol),
                       "--alpha", "1/2")
    assert code == 1
    payload = json.loads(out)
    assert payload["feasible"] is False
    assert payload["first_violation"] == {
        "s": 0, "t": 3, "capacity": 3, "subgraph_capacity": 1, "required": 2}
    assert payload["worst_ratio"] == "1/3"


@pytest.mark.parametrize("content", [
    '{"solution": [[0, 1]]}',        # no "edges" key
    '{"edges": [[0, 1, 2]]}',        # entry with three ids
    '{"edges": [[0, null]]}',        # non-integer id
    '{"edges": [0, 1]}',             # bare ids instead of pairs
    '{"edges": 5}',                  # "edges" is not a list
    '7',                             # neither an object nor a list
    '{"edges": [[0, 9]]}',           # pair that is not an edge
    '{"edges": ',                    # not JSON
    '{"edges": [[0, 1], [0, 1], [0, 2], [1, 3], [2, 3]]}',  # duplicate pair
])
def test_check_malformed_solution_exits_2(capsys, tmp_path, w_file, content):
    sol = tmp_path / "bad.json"
    sol.write_text(content)
    code, out, err = run(capsys, "check", "--input", w_file, "--solution", str(sol),
                         "--alpha", "1/2")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["solve", "--mode", "oracle"],
    ["solve"],                                   # auto mode, DSP input
    ["check"],
    ["check", "--against-oracle"],
], ids=["solve-oracle", "solve-auto", "check", "check-against-oracle"])
def test_negative_oracle_budget_exits_2(capsys, tmp_path, argv):
    graph = tmp_path / "d.el"
    graph.write_text(to_edge_list(fixtures()["diamond"]))
    sol = tmp_path / "full.json"
    sol.write_text(json.dumps({"edges": [[0, 1], [0, 2], [1, 3], [2, 3]]}))
    extra = ["--solution", str(sol)] if argv[0] == "check" else []
    code, out, err = run(capsys, *argv, "--input", str(graph), "--alpha", "1/2",
                         "--oracle-budget", "-5", *extra)
    assert code == 2
    assert out == ""
    assert err == "error: --oracle-budget must be nonnegative, got -5\n"


def test_check_malformed_solution_subprocess_stderr(tmp_path, w_file):
    sol = tmp_path / "bad.json"
    sol.write_text('{"solution": []}')
    src = os.path.dirname(os.path.dirname(mcps.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "mcps.cli", "check", "--input", w_file,
         "--solution", str(sol), "--alpha", "1/2"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: solution ")


def test_check_against_oracle_flags_suboptimal(capsys, tmp_path, w_file):
    sol = tmp_path / "full.json"
    sol.write_text(json.dumps({"edges": [[u, v] for u, v in fixtures()["W"].edges]}))
    code, out, _ = run(capsys, "check", "--input", w_file, "--solution", str(sol),
                       "--alpha", "1/2", "--against-oracle")
    payload = json.loads(out)
    assert payload["feasible"] is True
    if payload["optimal"]:
        assert code == 0
    else:
        assert code == 1
        assert payload["optimum"] < 5


def test_recognize_w(capsys, w_file):
    code, out, _ = run(capsys, "recognize", "--input", w_file)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "dsp: no"
    assert lines[1] == "lsp: no"
    assert "dsp_reason: w-subdivision" in lines
    assert "p1_witness: 0 3" in lines
    assert "p2_witness: 1 2" in lines
    assert any(line.startswith("w_branch: ") for line in lines)


def test_recognize_tree_dump(capsys, tmp_path):
    path = tmp_path / "d.el"
    path.write_text(to_edge_list(fixtures()["diamond"]))
    code, out, _ = run(capsys, "recognize", "--input", str(path), "--tree")
    assert code == 0
    assert out.splitlines()[0] == "dsp: yes"
    assert "parallel (0,3) cap=2" in out


def test_med_subcommand(capsys, tmp_path):
    path = tmp_path / "p.el"
    path.write_text("3 3\n0 1\n1 2\n0 2\n")
    code, out, _ = run(capsys, "med", "--input", str(path))
    assert code == 0
    assert json.loads(out) == {
        "algorithm": "med", "alpha": None, "objective": 2, "mcps_star": 0,
        "edges": [[0, 1], [1, 2]]}


def test_med_requires_lsp(capsys, w_file):
    code, out, err = run(capsys, "med", "--input", w_file)
    assert code == 3
    assert out == ""
    assert "precondition violation" in err


def test_stats(capsys, w_file):
    code, out, _ = run(capsys, "stats", "--input", w_file)
    assert code == 0
    assert json.loads(out) == {
        "n": 4, "m": 5, "acyclic": True, "sources": [0], "sinks": [3],
        "max_pair_capacity": 2, "feasible_to_optimal_bound": "5/3"}


def test_gen_fixture_round_trip(capsys):
    code, out, _ = run(capsys, "gen", "fixture", "W")
    assert code == 0
    assert parse_edge_list(out) == fixtures()["W"]


def test_gen_setcover_matches_builder(capsys, tmp_path):
    out_path = tmp_path / "sc.el"
    code, _, _ = run(capsys, "gen", "setcover", "--universe", "4",
                     "--sets", "0,1,2;2,3;1,2", "--p", "1",
                     "--out", str(out_path))
    assert code == 0
    generated = parse_edge_list(out_path.read_text())
    art = example_reduction_artifact()
    assert generated.edges == art.graph.edges
    meta = json.loads((tmp_path / "sc.el.json").read_text())
    assert meta["alpha"] == "1/2"
    assert meta["sink"] == art.sink


def test_gen_dsp_deterministic(capsys):
    code, out1, _ = run(capsys, "gen", "dsp", "--seed", "9", "--edges", "12")
    assert code == 0
    code, out2, _ = run(capsys, "gen", "dsp", "--seed", "9", "--edges", "12")
    assert out1 == out2


def test_gen_lsp(capsys):
    code, out, _ = run(capsys, "gen", "lsp", "--seed", "3", "--blocks", "2",
                       "--block-edges", "2,5")
    assert code == 0
    parse_edge_list(out)


def test_gen_unknown_fixture(capsys):
    code, _, err = run(capsys, "gen", "fixture", "nope")
    assert code == 2
    assert "unknown fixture" in err


def test_usage_errors_exit_2(capsys, w_file):
    code, _, err = run(capsys, "solve", "--input", w_file, "--alpha", "7/3")
    assert code == 2
    code, _, _ = run(capsys, "solve", "--input", w_file)
    assert code == 2
    code, _, err = run(capsys, "solve", "--input", "/nonexistent.el", "--alpha", "1/2")
    assert code == 2


def test_parse_error_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.el"
    bad.write_text("2 2\n0 1\n0 1\n")
    code, _, err = run(capsys, "recognize", "--input", str(bad))
    assert code == 2
    assert "line 3" in err


def test_budget_exit_4(capsys, tmp_path):
    from mcps.generators import gen_random_dsp
    big = tmp_path / "big.el"
    big.write_text(to_edge_list(gen_random_dsp(4, 30)))
    code, _, err = run(capsys, "solve", "--input", str(big), "--alpha", "1/2",
                       "--mode", "oracle")
    assert code == 4
    assert "budget" in err


def test_solve_precondition_exit_3(capsys, w_file):
    code, _, err = run(capsys, "solve", "--input", w_file, "--alpha", "1/2",
                       "--mode", "dsp")
    assert code == 3
    assert "w-subdivision" in err


def test_outputs_are_byte_deterministic(capsys, wplus_file):
    runs = [run(capsys, "solve", "--input", wplus_file, "--alpha", "1/2",
                "--mode", "oracle") for _ in range(2)]
    assert runs[0] == runs[1]
    runs = [run(capsys, "recognize", "--input", wplus_file) for _ in range(2)]
    assert runs[0] == runs[1]

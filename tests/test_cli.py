import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mcps
from mcps import parse_edge_list, to_edge_list
from mcps.cli import main
from mcps.generators import example_reduction_artifact, fixtures

from strategies import digraphs


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
    '{"edges": [[0, 1.9]]}',         # fractional id, int() would read (0, 1)
    '{"edges": [[true, 3]]}',        # boolean id, int() would read (1, 3)
    '{"edges": [["0", "1"]]}',       # string ids
    '{"edges": ["01"]}',             # a two-character string, not a pair
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


def test_check_over_nested_solution_exits_2(capsys, tmp_path, w_file):
    # json.load raises RecursionError here, which is not a ValueError
    sol = tmp_path / "deep.json"
    sol.write_text("[" * 100000 + "]" * 100000)
    code, out, err = run(capsys, "check", "--input", w_file, "--solution", str(sol),
                         "--alpha", "1/2")
    assert code == 2
    assert out == ""
    assert err == f"error: solution {sol}: JSON nested too deeply\n"


@pytest.mark.parametrize("content", [b"", b"\xff\xfe[]"])
def test_check_solution_not_json_names_the_file(capsys, tmp_path, w_file, content):
    # an empty file, and bytes that are not UTF-8
    sol = tmp_path / "bad.json"
    sol.write_bytes(content)
    code, out, err = run(capsys, "check", "--input", w_file, "--solution", str(sol),
                         "--alpha", "1/2")
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: solution {sol}: not valid JSON (") and err.count("\n") == 1


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


def test_parser_is_built_once_and_reused_across_calls(capsys, tmp_path):
    # a usage error, a solve and a tree dump in one process give the same
    # exit codes and stdout as each does in a process of its own
    from mcps.cli import _build_parser
    path = tmp_path / "d.el"
    path.write_text(to_edge_list(fixtures()["diamond"]))
    calls = [["solve", "--input", str(path)],
             ["solve", "--input", str(path), "--alpha", "1/2"],
             ["recognize", "--input", str(path), "--tree"]]
    src = os.path.dirname(os.path.dirname(mcps.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    alone = [subprocess.run([sys.executable, "-m", "mcps.cli", *argv],
                            capture_output=True, text=True, env=env, timeout=60)
             for argv in calls]
    assert [proc.returncode for proc in alone] == [2, 0, 0]
    assert "parallel (0,3) cap=2" in alone[2].stdout
    together = [run(capsys, *argv)[:2] for argv in calls]
    assert together == [(proc.returncode, proc.stdout) for proc in alone]
    assert _build_parser() is _build_parser()


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


@pytest.mark.parametrize("block_edges", ["0,0", "0,3", "5,2", "2", "a,b", "1,2,3"])
def test_gen_lsp_bad_block_edges_exits_2(capsys, block_edges):
    code, out, err = run(capsys, "gen", "lsp", "--seed", "3", f"--block-edges={block_edges}")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("flag,value", [("--cyclic-prob", "2"), ("--bipartite-prob", "-1"),
                                        ("--cyclic-prob", "nan")])
def test_gen_lsp_probability_out_of_range_exits_2(capsys, flag, value):
    code, out, err = run(capsys, "gen", "lsp", "--seed", "3", flag, value)
    assert code == 2 and out == ""
    assert err == f"error: {flag}: expected a probability in [0, 1], got {float(value)}\n"


def test_gen_lsp_probabilities_summing_above_1_exit_2(capsys):
    code, out, err = run(capsys, "gen", "lsp", "--seed", "3",
                         "--cyclic-prob", "0.6", "--bipartite-prob", "0.5")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_importing_the_cli_does_not_load_the_generators():
    src = os.path.dirname(os.path.dirname(mcps.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, mcps.cli; print('mcps.generators' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0 and proc.stdout == "False\n"


@pytest.mark.parametrize("argv", [
    ["solve", "--alpha", "1/2", "--mode", "oracle", "--dot"],
    ["gen", "fixture", "W", "--meta"],
])
def test_failed_side_file_write_leaves_stdout_empty(capsys, tmp_path, w_file, argv):
    if argv[0] == "solve":
        argv = [*argv[:1], "--input", w_file, *argv[1:]]
    code, out, err = run(capsys, *argv, str(tmp_path / "missing" / "x"))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_gen_unknown_fixture(capsys):
    code, _, err = run(capsys, "gen", "fixture", "nope")
    assert code == 2
    assert "unknown fixture" in err


def test_usage_errors_exit_2(capsys, w_file):
    code, _, err = run(capsys, "solve", "--input", w_file, "--alpha", "7/3")
    assert code == 2
    code, out, err = run(capsys, "solve", "--input", w_file)
    assert (code, out) == (2, "")
    assert err == "error: the following arguments are required: --alpha\n"
    code, _, err = run(capsys, "solve", "--input", "/nonexistent.el", "--alpha", "1/2")
    assert code == 2
    # argparse's own type errors, in a subparser too, are one line as well
    code, out, err = run(capsys, "gen", "lsp", "--seed", "1", "--cyclic-prob", "x")
    assert (code, out) == (2, "")
    assert err == "error: argument --cyclic-prob: invalid float value: 'x'\n"


@pytest.mark.parametrize("argv", [
    ["solve", "--alpha", "\u0661/\u0662"],
    ["solve", "--alpha", "1/2", "--oracle-budget", "+1_6"],
    ["solve", "--alpha", "1/2", "--oracle-budget", "\u0661\u0666"],
    ["gen", "setcover", "--universe", "2", "--sets", "0,1;\u0661"],
    ["gen", "setcover", "--universe", "2", "--sets", "0,1;+1"],
    ["gen", "setcover", "--universe", "2", "--sets", "0,1", "--p", "+1"],
    ["gen", "lsp", "--seed", "1", "--block-edges", "2,1_0"],
    ["gen", "lsp", "--seed", "1", "--blocks", "\u0662"],
    ["gen", "dsp", "--seed", "\u0661", "--edges", "3"],
    ["gen", "dsp", "--seed", "1", "--edges", "1_0"],
])
def test_every_number_read_from_the_command_line_is_ascii_decimal(capsys, w_file, argv):
    # the edge list's rule (-?[0-9]+); int() alone reads each of these
    if argv[0] == "solve":
        argv = [argv[0], "--input", w_file, *argv[1:]]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_gen_setcover_names_what_is_missing_in_one_short_line(capsys):
    # the message names the count and the smallest missing item, not each one
    code, out, err = run(capsys, "gen", "setcover", "--universe", "2000000", "--sets", "0")
    assert (code, out) == (2, "")
    assert err == "error: 1999999 items appear in no set, the smallest is 1\n"
    assert len(err) < 200


def test_help_still_prints_usage_and_exits_0(capsys):
    code, out, err = run(capsys, "--help")
    assert (code, err) == (0, "")
    assert out.startswith("usage: mcps ") and "{solve,recognize,check,med,stats,gen}" in out


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


def test_path_budget_message_names_source_and_spend(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(mcps.lsp, "DEFAULT_PATH_BUDGET", 3)
    k4 = tmp_path / "k4.el"
    k4.write_text(to_edge_list(fixtures()["bidirected_K4"]))
    code, out, err = run(capsys, "recognize", "--input", str(k4))
    assert code == 4
    assert out == ""
    assert err == "budget exceeded: path enumeration budget exceeded: 9 steps from source 0\n"


@pytest.mark.parametrize("header,code", [("10 0", 0), ("11 0", 2)])
def test_header_vertex_cap(capsys, tmp_path, monkeypatch, header, code):
    monkeypatch.setattr(mcps.graphs, "MAX_HEADER_VERTICES", 10)
    path = tmp_path / "g.el"
    path.write_text(header + "\n")
    got, out, err = run(capsys, "stats", "--input", str(path))
    assert got == code
    if code == 2:
        assert out == ""
        assert err == "error: line 1: header vertex count 11 exceeds the limit of 10\n"


def test_huge_header_exits_2_before_allocating(capsys, tmp_path):
    path = tmp_path / "huge.el"
    path.write_text("100000000 0\n")
    started = time.perf_counter()
    code, out, err = run(capsys, "stats", "--input", str(path))
    assert time.perf_counter() - started < 1.0
    assert code == 2
    assert out == ""
    assert err.startswith("error: line 1: header vertex count") and err.count("\n") == 1


def test_solve_and_check_on_a_large_header_with_three_vertices_used(capsys, tmp_path):
    path, sol = tmp_path / "g.el", tmp_path / "sol.json"
    path.write_text("100000 2\n0 1\n1 2\n")
    code, out, err = run(capsys, "solve", "--input", str(path), "--alpha", "1/2")
    assert (code, err) == (0, "")
    # the isolated vertices make it no DSP, but an LSP
    assert json.loads(out) == {"algorithm": "lsp", "alpha": "1/2", "objective": 2,
                               "mcps_star": 0, "edges": [[0, 1], [1, 2]]}
    sol.write_text(out)
    code, out, err = run(capsys, "check", "--input", str(path), "--solution", str(sol),
                         "--alpha", "1/2")
    assert (code, err) == (0, "")
    assert json.loads(out)["feasible"] is True


def test_solve_precondition_exit_3(capsys, w_file):
    code, _, err = run(capsys, "solve", "--input", w_file, "--alpha", "1/2",
                       "--mode", "dsp")
    assert code == 3
    assert "w-subdivision" in err


def test_edgeless_input(capsys, tmp_path):
    # not a DSP (reason no-edges), but an LSP whose answer is empty
    path = tmp_path / "e.el"
    path.write_text("3 0\n")
    code, out, err = run(capsys, "solve", "--input", str(path), "--alpha", "1/2",
                         "--mode", "dsp")
    assert (code, out) == (3, "")
    assert err == ("precondition violation: not a two-terminal series-parallel digraph: "
                   "no-edges\ndsp_reason: no-edges\n")
    assert run(capsys, "recognize", "--input", str(path)) == (
        0, "dsp: no\nlsp: yes\ndsp_reason: no-edges\n", "")
    code, out, _ = run(capsys, "solve", "--input", str(path), "--alpha", "1/2")
    assert code == 0 and json.loads(out)["algorithm"] == "lsp"


def test_outputs_are_byte_deterministic(capsys, wplus_file):
    runs = [run(capsys, "solve", "--input", wplus_file, "--alpha", "1/2",
                "--mode", "oracle") for _ in range(2)]
    assert runs[0] == runs[1]
    runs = [run(capsys, "recognize", "--input", wplus_file) for _ in range(2)]
    assert runs[0] == runs[1]


# sha256 of the stdout of solve, check (of solve's answer), recognize and med
# on each fixture at 1/3, 1/2 and 2/3, joined in that order; recorded before
# the retention ratio became a Fraction and the result fields became derived.
FIXTURE_STDOUT_SHA256 = {
    "C3":
        "85524ad1fbd14a889899abb484d17ebfe008f7e77cfbc4cf23f37dabf6f5d8d7",
    "C4":
        "dd9b05e914f51e858e66fbb677013ab1cc63d782f45125ca9f8f97d278a2e010",
    "C5":
        "469925f4dd30d0c5b0f9815bc5717458f95f1135cc000847391adacd71530d00",
    "C6":
        "6829ca1829bc2b5cd9d5ccf629317bcc3b6608441b7c9a32f3085736c06b095c",
    "K33":
        "298001185cd100838917961a409465e0e5e5346969fe6ab9c61975066e022cd7",
    "W":
        "e7a1eb0a9d8b8a11350a9039740838203c6116a0ba1306a57e4bf8ac9c70a90d",
    "bidirected_C4":
        "c1256c69d8c8d1f39a0446eeaf1c8d0e4ad649b771289184e7d0491a754b33d6",
    "bidirected_C6":
        "be8cd0ce02abb5f860e193b6339450bc0ae36fcf38133733ef02b56bc2fe1945",
    "bidirected_K4":
        "27d0a77272d909509bb92f2261f5c6f67b0a4ef9d1aae4c7dc3eb6b40d93fd7c",
    "block_chain":
        "56d3ef40403113f94be28636c1afa762554972586eb7ec345578a792018fea04",
    "cyclic_diamond":
        "5ce5cba91c147610554c15ccd19817e7ac012b062a0f6e28f8cfbbb05e1bacb1",
    "diamond":
        "a52594ee23b7ab242ce10a916aff70cac6946082e62ba37ba513b3eb2d1cc0e2",
    "diamond_ring":
        "4b3b707253dbbb4cf43334dfc9f62b58d8122a4aef021b74f37281a666ff6b5b",
    "reduction_example":
        "4b20afff3d053cb9319325736dc49baae2740104e4eb1e933a5e19fcff513321",
    "triangle_chord":
        "33cfb373e19564e19bddb432c7555d13307d87c30d01a646e00b7adf0c342a67",
    "w_plus":
        "0f31cfe45d4776bde066e3406d98a0452d645014561164f1c5a3c01a2fececf0",
}


@pytest.mark.parametrize("name", sorted(fixtures()))
def test_fixture_stdout_is_pinned(capsys, tmp_path, name):
    graph_path, sol_path = tmp_path / "g.el", tmp_path / "sol.json"
    graph_path.write_text(to_edge_list(fixtures()[name]))
    outs = []
    for alpha in ("1/3", "1/2", "2/3"):
        _, out, _ = run(capsys, "solve", "--input", str(graph_path), "--alpha", alpha)
        sol_path.write_text(out)
        outs.append(out)
        outs.append(run(capsys, "check", "--input", str(graph_path),
                        "--solution", str(sol_path), "--alpha", alpha)[1])
        outs.append(run(capsys, "recognize", "--input", str(graph_path))[1])
        outs.append(run(capsys, "med", "--input", str(graph_path))[1])
    assert hashlib.sha256("".join(outs).encode()).hexdigest() == FIXTURE_STDOUT_SHA256[name]


@pytest.mark.parametrize("args,stdout_sha256,meta_sha256", [
    (["--universe", "4", "--sets", "0,1,2;2,3;1,2", "--p", "1"],
     "167fb7b0663410355f299ffeb054ea843d2e2796509fd43ec760b93846775196",
     "412b973ab4c4701e5abe4239ab5de1423c093ab3e6b0e288ab55c2c69d7fdd5b"),
    (["--universe", "5", "--sets", "0,1;1,2,3;3,4;0,4", "--p", "3"],
     "b96d7be10431b80077a3f5fff0bb2ce70cb6702d6b23ee013ad78a7a291691bb",
     "f0458ec02b772ba8d0fa677c93f20305efa503399b4ea7e7d141105f6bc03ce5"),
])
def test_gen_setcover_bytes_are_pinned(capsys, tmp_path, args, stdout_sha256, meta_sha256):
    # recorded while ReductionArtifact stored alpha beside p
    meta = tmp_path / "sc.json"
    code, out, _ = run(capsys, "gen", "setcover", *args, "--meta", str(meta))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == stdout_sha256
    assert hashlib.sha256(meta.read_bytes()).hexdigest() == meta_sha256


# --- property tests through cli.main --------------------------------------

def _run_in(directory, files, *argv):
    """cli.main on files written into `directory`, with output captured."""
    for name, text in files.items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([os.path.join(directory, a) if a in files else a for a in argv])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=60, deadline=None)
@given(digraphs(max_n=7, max_m=14))
def test_stats_max_pair_capacity_is_the_unpruned_maximum(g):
    unpruned = max([mcps.max_flow_value(g, s, t) for s in range(g.n)
                    for t in g.reachable_from(s) if t != s], default=0)
    with tempfile.TemporaryDirectory() as tmp:
        code, out, _ = _run_in(tmp, {"g.el": to_edge_list(g)}, "stats", "--input", "g.el")
    assert code == 0
    assert json.loads(out)["max_pair_capacity"] == unpruned


@settings(max_examples=100, deadline=None)
@given(digraphs(max_n=7, max_m=14))
def test_recognize_cycle_line_is_find_cycle(g):
    with tempfile.TemporaryDirectory() as tmp:
        code, out, _ = _run_in(tmp, {"g.el": to_edge_list(g)}, "recognize", "--input", "g.el")
    assert code == 0
    cycle = [line for line in out.splitlines() if line.startswith("cycle: ")]
    expected = g.find_cycle()
    assert cycle == ([] if expected is None else ["cycle: " + " ".join(map(str, expected))])


_ids = st.integers(-1, 7)
_junk_line = st.one_of(
    st.tuples(_ids, _ids).map(lambda p: f"{p[0]} {p[1]}"),
    st.sampled_from(["", "# comment", "  # indented comment", "1", "1 2 3", "a b",
                     "1.5 2", "0\t1", "+1 2", "0 0", "-1 2", "x 2", "3 2 1"]))
_junk_json = st.sampled_from(['{"edges": ', "7", '{"solution": []}', '{"edges": 5}', "",
                              "[[0, 1]", '{"edges": [[0, 1.5]]}', '{"edges": [[true, 1]]}',
                              '{"edges": [["0", "1"]]}', '{"edges": [[0, 1, 2]]}'])


@st.composite
def _cli_inputs(draw):
    """Edge-list text and solution JSON: a valid graph and a subset of its
    edges, each sometimes broken by inserted, replaced or miscounted lines."""
    g = draw(digraphs(max_n=6, max_m=9))
    lines = to_edge_list(g).splitlines()
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        kind = draw(st.sampled_from(["insert", "replace", "header"]))
        at = draw(st.integers(1 if kind == "replace" else 0, len(lines)))
        if kind == "header":
            lines[0] = f"{draw(st.integers(0, 7))} {draw(st.integers(0, 10))}"
        elif kind == "replace" and at < len(lines):
            lines[at] = draw(_junk_line)
        else:
            lines.insert(at, draw(_junk_line))
    pairs = [list(e) for e in g.edges if draw(st.booleans())]
    if not draw(st.integers(0, 4)):
        pairs.append([draw(_ids), draw(_ids)])
    solution = draw(st.sampled_from([json.dumps({"edges": pairs}), json.dumps(pairs)])
                    if draw(st.integers(0, 3)) else _junk_json)
    return "\n".join(lines) + "\n", solution


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["solve", "check", "recognize", "med", "stats"]), _cli_inputs(),
       st.sampled_from(["1/2", "1/3", "2/3", "3/4"] * 3 + ["7/3", "0/1", "x"]),
       st.sampled_from(["auto", "dsp", "lsp", "oracle"]), st.booleans(),
       st.sampled_from(["16", "2"]))
def test_cli_fuzz_exit_codes_and_stderr(cmd, inputs, alpha, mode, against_oracle, budget):
    text, solution = inputs
    argv = [cmd, "--input", "g.el"]
    if cmd == "solve":
        argv += ["--alpha", alpha, "--mode", mode, "--oracle-budget", budget]
    elif cmd == "check":
        argv += ["--alpha", alpha, "--solution", "sol.json", "--oracle-budget", budget]
        argv += ["--against-oracle"] if against_oracle else []
    with tempfile.TemporaryDirectory() as tmp:
        code, _, err = _run_in(tmp, {"g.el": text, "sol.json": solution}, *argv)
    assert code in range(5)
    assert "Traceback" not in err
    if code in (2, 4):
        assert err.count("\n") == 1 and err.endswith("\n"), err
    if code == 3:
        assert err.startswith("precondition violation:"), err

"""Regenerate perfbench/expected.json: the instance pools the workloads draw
from, with the outputs each operation must produce.

    python3 perfbench/make_expected.py

Expected values come from the library as it stands, and each is
cross-checked against an independent route before it is recorded:

- solve results on graphs of at most 16 edges against the brute-force
  oracle;
- DSP results on small graphs against the LSP solver (a DSP is an LSP);
- LSP results against the sum of `solve_dsp` over the maximal EAS blocks,
  plus the edge-endpoint coverage certificate on every lsp-dag solution;
- Set-Cover reductions: the solution mapped from the brute-force cover must
  be feasible, and optimal where the oracle can tell.

dsp-large values are recorded from `solve_dsp` alone: at ~20k edges neither
the LSP route (closure-mask cap) nor the oracle applies, and the DSP solver's
optimality is covered by the test suite on smaller instances.

Rerun only when a generator's output changes on purpose; the benchmark
reports such drift as a failed run.
"""

from __future__ import annotations

import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from mcps import generators, oracle, solver  # noqa: E402
from mcps.errors import NotDspError  # noqa: E402
from mcps.flow import RetentionRatio, is_covered  # noqa: E402
from mcps.graphs import DirectedGraph, induced_on_edges, parse_edge_list  # noqa: E402
from mcps.lsp import meas_partition  # noqa: E402
from mcps.spdecomp import recognize_dsp  # noqa: E402

from instances import build, fingerprint  # noqa: E402
from workloads import ORACLE_EDGES, cli_argv, cli_outcome, run_cli, scratch_dir  # noqa: E402

ALPHAS = ("1/2", "2/3", "1/3")


def block_sum(graph: DirectedGraph, alpha: RetentionRatio) -> int:
    """LSP objective as the sum of DSP optima over the maximal EAS sets."""
    total = 0
    for block in meas_partition(graph):
        sub, _ = induced_on_edges(graph, block.sorted())
        total += solver.solve_dsp(sub, alpha).objective
    return total


def entry_for(spec: dict) -> tuple[dict, str, dict]:
    text, extra = build(spec)
    graph = parse_edge_list(text)
    entry = {"spec": spec, "fingerprint": fingerprint(text), "n": graph.n, "m": graph.m}
    return entry, text, extra


def library_entry(spec: dict, solver_name: str) -> dict:
    entry, text, _ = entry_for(spec)
    entry["expect"] = {}
    for alpha in ALPHAS:
        ratio = RetentionRatio.parse(alpha)
        sol = getattr(solver, solver_name)(parse_edge_list(text), ratio)
        if solver_name == "solve_lsp":
            graph = parse_edge_list(text)
            assert block_sum(graph, ratio) == sol.objective, spec
            assert all(is_covered(graph, sol.edges, u, v, ratio) for u, v in graph.edges), spec
        entry["expect"][alpha] = {"objective": sol.objective, "mcps_star": sol.mcps_star}
    return entry


def dsp_large_pool() -> list:
    # Sizes spread evenly over one band (about 10k to 30k edges, 20k on
    # average), so op times form one continuous range without clusters.
    return [library_entry({"family": "dsp", "seed": 100 + i, "edges": 8_000 + 16_000 * i // 23},
                          "solve_dsp") for i in range(24)]


def lsp_dag_pool() -> list:
    pool = []
    seed = 200
    while len(pool) < 32:
        seed += 1
        spec = {"family": "lsp", "seed": seed, "blocks": 60, "block_edges": [8, 24],
                "cyclic_prob": 0.0, "bipartite_prob": 0.2}
        text, _ = build(spec)
        if 950 <= parse_edge_list(text).m <= 1100:  # one size band
            pool.append(library_entry(spec, "solve_lsp"))
    return pool


def _near_miss_spec(seed: int) -> dict:
    rng = random.Random(seed)
    target = 5 + seed % 36
    base = generators.gen_random_dsp(seed, target)
    topo = base.topological_order()
    extra: list = []
    while True:
        i, j = sorted(rng.sample(range(base.n), 2))
        u, v = topo[i], topo[j]
        if base.has_edge(u, v) or [u, v] in extra:
            continue
        extra.append([u, v])
        graph = DirectedGraph(base.n, list(base.edges) + [tuple(e) for e in extra])
        try:
            recognize_dsp(graph)
        except NotDspError as err:
            if err.witness.reason == "w-subdivision" and err.witness.w is not None:
                return {"family": "near-miss", "seed": seed, "edges": target,
                        "extra": extra}
        if len(extra) == 2:
            extra = []


def _general_spec(seed: int) -> dict:
    rng = random.Random(seed)
    n = rng.randint(5, 8)
    m = rng.randint(8, min(ORACLE_EDGES - 2, n * (n - 1)))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    return {"family": "general", "n": n, "arcs": [list(p) for p in rng.sample(pairs, m)]}


def _setcover_spec(seed: int) -> dict:
    rng = random.Random(seed)
    while True:
        universe = rng.randint(1, 4)
        sets = [sorted(rng.sample(range(universe), rng.randint(1, universe)))
                for _ in range(rng.randint(1, 4))]
        if set().union(*map(set, sets)) == set(range(universe)):
            return {"family": "setcover", "universe": universe, "sets": sets,
                    "p": 1 + seed % 2}


def cli_specs() -> list:
    specs = [{"family": "fixture", "name": name} for name in sorted(generators.fixtures())]
    specs += [{"family": "dsp", "seed": 300 + i, "edges": 15 + (i * 37) % 86}
              for i in range(24)]
    specs += [{"family": "lsp", "seed": 400 + i, "blocks": 4 + i % 3, "block_edges": [3, 10],
               "cyclic_prob": 0.5, "bipartite_prob": 0.2} for i in range(24)]
    specs += [_near_miss_spec(500 + i) for i in range(24)]
    specs += [_general_spec(600 + i) for i in range(24)]
    specs += [_setcover_spec(700 + i) for i in range(10)]
    return specs


def cli_ops(spec: dict, graph: DirectedGraph, alpha: str, paths: dict) -> list:
    """Run each CLI operation once, cross-check it, and record its outcome."""
    ratio = RetentionRatio.parse(alpha)
    cmds = ["solve", "check", "recognize", "med", "stats"]
    if os.path.exists(paths["sc_solution"]):
        cmds.append("check-sc")
    ops = []
    for cmd in cmds:
        if cmd == "check" and ops[0]["exit"] != 0:
            continue  # nothing was emitted to check
        code, stdout, stderr = run_cli(cli_argv(cmd, graph.m, alpha, paths))
        assert "Traceback" not in stderr, (spec, cmd)
        outcome = cli_outcome(cmd, code, stdout)
        if cmd == "solve" and code == 0:
            with open(paths["solution"], "w", encoding="utf-8") as fh:
                fh.write(stdout)
            objective = outcome["payload"]["objective"]
            algorithm = outcome["payload"]["algorithm"]
            if graph.m <= ORACLE_EDGES:
                assert oracle.brute_force_mcps(graph, ratio).objective == objective, spec
            if algorithm == "dsp":
                assert solver.solve_lsp(graph, ratio).objective == objective, spec
            if algorithm == "lsp":
                assert block_sum(graph, ratio) == objective, spec
        if cmd in ("check", "check-sc"):
            payload = outcome["payload"]
            assert code == 0 and payload["feasible"], (spec, cmd)
            assert payload.get("optimal", True), (spec, cmd)
        ops.append({"cmd": cmd, **outcome})
    return ops


def cli_entry(spec: dict, workdir: str) -> dict:
    entry, text, extra = entry_for(spec)
    paths = {"graph": os.path.join(workdir, "g.el"),
             "solution": os.path.join(workdir, "sol.json"),
             "sc_solution": os.path.join(workdir, "sc.json")}
    with open(paths["graph"], "w", encoding="utf-8") as fh:
        fh.write(text)
    if "solution" in extra:
        with open(paths["sc_solution"], "w", encoding="utf-8") as fh:
            fh.write(extra["solution"])
    # A reduction is built for the ratio p/(p+1); other graphs take each ratio.
    alphas = [f"{spec['p']}/{spec['p'] + 1}"] if spec["family"] == "setcover" else ALPHAS
    graph = parse_edge_list(text)
    entry["ops"] = {alpha: cli_ops(spec, graph, alpha, paths) for alpha in alphas}
    if os.path.exists(paths["sc_solution"]):
        os.remove(paths["sc_solution"])
    return entry


def cli_pool() -> list:
    with scratch_dir(os.path.dirname(HERE)) as workdir:
        return [cli_entry(spec, workdir) for spec in cli_specs()]


def dump(data: dict) -> str:
    """JSON with one pool entry per line, so changes diff line by line."""
    parts = []
    for key, value in data.items():
        if isinstance(value, list):
            rows = ",\n".join("  " + json.dumps(v, sort_keys=True) for v in value)
            parts.append(f" {json.dumps(key)}: [\n{rows}\n ]")
        else:
            parts.append(f" {json.dumps(key)}: {json.dumps(value)}")
    return "{\n" + ",\n".join(parts) + "\n}\n"


def main() -> None:
    data = {
        "about": "Instance pools and expected outputs; regenerate with "
                 "python3 perfbench/make_expected.py",
        "dsp-large": dsp_large_pool(),
        "lsp-dag": lsp_dag_pool(),
        "cli-mixed": cli_pool(),
    }
    path = os.path.join(HERE, "expected.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump(data))
    print(f"wrote {path}: " + ", ".join(f"{k} {len(v)}" for k, v in data.items()
                                          if isinstance(v, list)))


if __name__ == "__main__":
    main()

"""Compare a base revision's answers with the working tree's on every
benchmark instance.

    python3 tools/same_answers.py --base HEAD~1

Run from the repository root. The base revision is exported as
`tools/bench_pairs.py` exports it; the change side is the working tree as
it stands. Each side runs this script's worker against its own `src/` and
`perfbench/`, which is only read. For every instance of
`perfbench/expected.json` the worker reports:

- dsp-large and lsp-dag: the kept edge set, objective and mcps_star of
  `solve_dsp` / `solve_lsp` at each listed ratio, each on a fresh parse;
- cli-mixed: the exit code and stdout of each CLI op at each listed ratio,
  in the workload's order (a solve's stdout is the following check's input);
- dsp-large, once per instance: the sha256 of `recognize_dsp(...).dump()` on
  a fresh parse, so a change in the decomposition tree (the order in which
  the reduction contracts vertices and merges routes) counts as a
  difference, though no benchmark answer prints a tree;
- lsp-dag, once per instance: the `solve_med` answer on a fresh parse, as
  the workload itself calls only `solve_lsp`.

No benchmark instance has a cyclic LSP above ~150 edges, and none nests
its EAS sets deeply, so the worker also reports, for each cyclic
`gen_random_lsp` instance of CYCLIC_LSPS (328-614 edges) and each nested
DSP of NESTED_DSPS (999 and 1,999 edges), the `is_lsp` witnesses, the
`meas_partition` blocks, the `solve_lsp` answer at each of CYCLIC_RATIOS
and the `solve_med` answer, each on a fresh parse.

The first answer that differs is printed and the exit code is 1; otherwise
the count of identical answers is printed and the exit code is 0. Exit code
2 means a side's worker failed or the base revision cannot be exported.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

from bench_pairs import ROOT, export, git

# (seed, blocks) of gen_random_lsp(seed, blocks=blocks, block_edges=(8, 24),
# cyclic_prob=0.5, bipartite_prob=0.2): cyclic LSPs of 328-614 edges, small
# enough that a base revision whose LSP steps walk the whole graph's simple
# paths (not the reduced core's routes) still ends within seconds
CYCLIC_LSPS = [(1, 20), (4, 20), (1, 30), (1, 40)]
CYCLIC_RATIOS = ["1/3", "1/2", "2/3"]
# k of the DSP with edges (i, i+1) for i < k and (i, k) for i < k-1, whose
# terminal-edge P nodes nest k deep
NESTED_DSPS = [500, 1_000]


def solution(result) -> list:
    return [sorted(result.edges), result.objective, result.mcps_star]


def emit(root: str) -> None:
    """The worker: one JSON line per answer, from the code under `root`."""
    from mcps import (DirectedGraph, RetentionRatio, is_lsp, meas_partition, parse_edge_list,
                      recognize_dsp, solve_lsp, solve_med, to_edge_list)
    from mcps.generators import gen_random_lsp
    from instances import build
    from workloads import WORKLOADS

    with open(os.path.join(root, "perfbench", "expected.json"), encoding="utf-8") as fh:
        pools = json.load(fh)
    with tempfile.TemporaryDirectory(prefix="same_answers_") as workdir:
        for name, workload in WORKLOADS.items():
            key = "expect" if name != "cli-mixed" else "ops"
            for index, entry in enumerate(pools[name]):
                for alpha in sorted(entry[key]):
                    ops = workload.prepare(dict(entry, alpha=alpha), index, workdir)
                    for op in ops:
                        result = op.call()
                        op.check(result)  # writes a solve's output for the next check
                        if name == "cli-mixed":
                            answer = list(result[:2])
                        else:
                            answer = solution(result)
                        print(json.dumps([name, op.label, alpha, answer]), flush=True)
    for index, entry in enumerate(pools["dsp-large"]):
        dump = recognize_dsp(parse_edge_list(build(entry["spec"])[0])).dump()
        print(json.dumps(["dsp-tree", f"dsp-large#{index}", None,
                          hashlib.sha256(dump.encode()).hexdigest()]), flush=True)
    for index, entry in enumerate(pools["lsp-dag"]):
        med = solve_med(parse_edge_list(build(entry["spec"])[0]))
        print(json.dumps(["lsp-med", f"lsp-dag#{index}", "med", solution(med)]), flush=True)
    instances = [("lsp-cyclic", f"gen_random_lsp({seed}, blocks={blocks})",
                  gen_random_lsp(seed, blocks=blocks, block_edges=(8, 24),
                                 cyclic_prob=0.5, bipartite_prob=0.2))
                 for seed, blocks in CYCLIC_LSPS]
    instances += [("lsp-nested", f"nested DSP k={k}",
                   DirectedGraph(k + 1, [(i, i + 1) for i in range(k)]
                                 + [(i, k) for i in range(k - 1)]))
                  for k in NESTED_DSPS]
    for name, label, graph in instances:
        text = to_edge_list(graph)
        verdict = is_lsp(parse_edge_list(text))
        print(json.dumps([name, label, None, [verdict.p1_witness, verdict.p2_witness]]),
              flush=True)
        blocks = [block.sorted() for block in meas_partition(parse_edge_list(text))]
        print(json.dumps([name, label, "meas", blocks]), flush=True)
        for alpha in CYCLIC_RATIOS:
            result = solve_lsp(parse_edge_list(text), RetentionRatio.parse(alpha))
            print(json.dumps([name, label, alpha, solution(result)]), flush=True)
        med = solve_med(parse_edge_list(text))
        print(json.dumps([name, label, "med", solution(med)]), flush=True)


def answers(root: str) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(root, "src"), os.path.join(root, "perfbench")]))
    return subprocess.Popen([sys.executable, os.path.abspath(__file__), "--emit", root],
                            cwd=root, env=env, stdout=subprocess.PIPE, text=True)


def first_difference(base: list[str], change: list[str]) -> str | None:
    for b, c in zip(base, change):
        if b != c:
            (name, label, alpha, want), got = json.loads(b), json.loads(c)[3]
            if name == "cli-mixed":
                return f"{name} {label} at {alpha}: base (exit, stdout) {want!r}, change {got!r}"
            if name == "dsp-tree":
                return f"{name} {label}: base tree sha256 {want}, change {got}"
            if alpha is None:
                return f"{name} {label}: base (p1_witness, p2_witness) {want!r}, change {got!r}"
            if alpha == "meas":
                pairs = [(b, c) for b, c in zip(want, got) if b != c]
                return (f"{name} {label}: {len(want)} base MEAS blocks, {len(got)} change "
                        f"blocks; first (base, change) pair that differs {pairs[:1]!r}")
            diff = sorted(set(want[0]) ^ set(got[0]))
            edge = f"edge {diff[0]} is kept by one side only; " if diff else ""
            return (f"{name} {label} at {alpha}: {edge}base (objective, mcps_star) "
                    f"{tuple(want[1:])}, change {tuple(got[1:])}")
    if len(base) != len(change):
        return f"base gave {len(base)} answers, change {len(change)}"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD", help="revision to compare against")
    parser.add_argument("--emit", metavar="ROOT", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.emit:
        emit(args.emit)
        return 0
    try:
        git("rev-parse", args.base)
    except subprocess.CalledProcessError:
        print(f"error: cannot resolve {args.base!r}", file=sys.stderr)
        return 2
    tmp = tempfile.mkdtemp(prefix="same_answers_")
    try:
        base_root = os.path.join(tmp, "base")
        export(args.base, base_root)
        procs = {"base": answers(base_root), "change": answers(ROOT)}
        lines = {side: proc.communicate()[0].splitlines() for side, proc in procs.items()}
        failed = [side for side, proc in procs.items() if proc.returncode]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if failed:
        print(f"error: the {' and '.join(failed)} worker failed", file=sys.stderr)
        return 2
    diff = first_difference(lines["base"], lines["change"])
    if diff is not None:
        print(diff)
        return 1
    print(f"{len(lines['change'])} answers identical to {args.base}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

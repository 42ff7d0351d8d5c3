"""The three benchmark workloads.

Each workload runs every instance of its committed pool in `expected.json`;
the seed picks the retention ratio of each instance and the order of the
instances, so every run measures the same mix of graphs. Instances are built
through the library's generators during set-up and turned into a list of
operations. An operation is a timed call plus a check of its output that
runs outside the timed region. Every call starts from edge-list text or a file, never from a
generator's graph object, so no derived value cached on a graph object
survives into a timed call.

- dsp-large: parse + `solve_dsp` on random DSPs of 10k to 30k edges (20k
  on average). Recognition, tree cleaning and the fold do the work; no
  max-flow runs.
- lsp-dag: parse + `solve_lsp` on ~1k-edge acyclic LSPs (DSP and bipartite
  blocks). Restricted, limited max-flows dominate; recognition runs once
  per source x sink pair inside `check_p1`.
- cli-mixed: in-process `mcps.cli.main` on files of at most ~150 edges:
  solve, a check of each emitted solution, recognize, med and stats, over
  fixtures, small DSPs, cyclic LSPs, near-miss DAGs, oracle-sized graphs
  and Set-Cover reductions. Unrestricted all-pairs flows, cyclic path
  enumeration, the oracle, the W search and CLI I/O run only here.
"""

from __future__ import annotations

import io
import json
import os
import random
import shutil
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional

from mcps import cli, graphs, solver
from mcps.flow import RetentionRatio

from instances import build, fingerprint

# Largest instance the oracle solves, and so the largest on which `check`
# is asked to compare against it.
ORACLE_EDGES = 16


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]


class DriftError(Exception):
    """A generated instance differs from the one its expected values were
    recorded for, so those values cannot be used as a check."""


def _built(entry: dict) -> tuple[str, dict]:
    text, extra = build(entry["spec"])
    if fingerprint(text) != entry["fingerprint"]:
        raise DriftError(f"instance {entry['spec']} no longer generates the recorded "
                         f"graph; regenerate expected.json with perfbench/make_expected.py")
    return text, extra


@contextmanager
def scratch_dir(root: str):
    """A private directory under `<root>/.perfbench_work`, removed on exit."""
    path = os.path.join(root, ".perfbench_work", str(os.getpid()))
    os.makedirs(path)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(path))
        except OSError:
            pass  # another run still uses it


def _with_ratios(entries: list, key: str, rng: random.Random) -> list:
    """Each entry with a seeded choice among the ratios it has expected
    outputs for, in seeded order."""
    chosen = [dict(e, alpha=rng.choice(sorted(e[key]))) for e in entries]
    rng.shuffle(chosen)
    return chosen


# --- library workloads ----------------------------------------------------

def _solver_op(entry: dict, text: str, solver_name: str) -> Op:
    alpha = RetentionRatio.parse(entry["alpha"])
    expect = entry["expect"][entry["alpha"]]

    def call():
        graph = graphs.parse_edge_list(text)
        if graph._cache:
            raise AssertionError("a freshly parsed graph has a populated cache")
        return getattr(solver, solver_name)(graph, alpha)

    def check(sol) -> Optional[str]:
        got = {"algorithm": sol.algorithm, "objective": sol.objective,
               "mcps_star": sol.mcps_star}
        want = {"algorithm": solver_name.removeprefix("solve_"),
                "objective": expect["objective"],
                "mcps_star": expect["mcps_star"]}
        if got != want:
            return f"got {got}, expected {want}"
        if len(sol.edges) != sol.objective or sol.edges.m != entry["m"]:
            return "solution edge set does not match its objective or host graph"
        return None

    return Op(f"{solver_name}:{entry['spec']}", call, check)


class LibraryWorkload:
    def __init__(self, smoke_instances: int, solver_name: str):
        self.smoke_instances = smoke_instances
        self.solver_name = solver_name

    def select(self, pool: list, rng: random.Random, smoke: bool) -> list:
        entries = rng.sample(pool, self.smoke_instances) if smoke else pool
        return _with_ratios(entries, "expect", rng)

    def prepare(self, entry: dict, index: int, workdir: str) -> list[Op]:
        return [_solver_op(entry, _built(entry)[0], self.solver_name)]


# --- CLI workload ---------------------------------------------------------

def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """`mcps.cli.main` in-process, with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        code = cli.main(argv)
    finally:
        sys.stdout, sys.stderr = saved
    return code, out.getvalue(), err.getvalue()


def cli_argv(cmd: str, m: int, alpha: str, paths: dict) -> list[str]:
    """Arguments for one CLI operation on an instance's files."""
    if cmd == "solve":
        return ["solve", "--input", paths["graph"], "--alpha", alpha]
    if cmd in ("check", "check-sc"):
        solution = paths["solution" if cmd == "check" else "sc_solution"]
        argv = ["check", "--input", paths["graph"], "--solution", solution, "--alpha", alpha]
        return argv + (["--against-oracle"] if m <= ORACLE_EDGES else [])
    return [cmd, "--input", paths["graph"]]


def recognize_verdict(stdout: str) -> dict:
    """The verdict fields of `recognize` output: class answers, the DSP
    rejection reason, and whether a W witness was printed."""
    fields = dict(line.split(": ", 1) for line in stdout.splitlines() if ": " in line)
    return {"dsp": fields.get("dsp"), "lsp": fields.get("lsp"),
            "dsp_reason": fields.get("dsp_reason"), "w_witness": "w_branch" in fields}


def cli_outcome(cmd: str, code: int, stdout: str) -> dict:
    """What a CLI operation is checked on: its exit code plus the parts of
    its output that do not depend on solver tie-breaking."""
    outcome: dict = {"exit": code}
    if code != 0:
        return outcome
    if cmd == "recognize":
        outcome["verdict"] = recognize_verdict(stdout)
        return outcome
    payload = json.loads(stdout)
    if cmd in ("solve", "med"):
        payload.pop("edges")
    outcome["payload"] = payload
    return outcome


def _cli_op(entry: dict, spec_op: dict, paths: dict) -> Op:
    cmd = spec_op["cmd"]
    argv = cli_argv(cmd, entry["m"], entry["alpha"], paths)

    def call():
        return run_cli(argv)

    def check(result) -> Optional[str]:
        code, stdout, stderr = result
        if "Traceback" in stderr:
            return "traceback on stderr"
        if code != 0 and (stdout or not stderr.strip()):
            return f"exit {code} with output on stdout or no diagnostic on stderr"
        got = cli_outcome(cmd, code, stdout)
        want = {k: v for k, v in spec_op.items() if k != "cmd"}
        if got != want:
            return f"got {got}, expected {want}"
        if cmd == "solve" and code == 0:
            # The emitted solution is what the following check op reads.
            with open(paths["solution"], "w", encoding="utf-8") as fh:
                fh.write(stdout)
        return None

    return Op(f"cli {cmd}:{entry['spec']}", call, check)


class CliWorkload:
    def select(self, pool: list, rng: random.Random, smoke: bool) -> list:
        entries = pool
        if smoke:  # one instance of each family
            firsts = {}
            for e in pool:
                firsts.setdefault(e["spec"]["family"], e)
            entries = list(firsts.values())
        return _with_ratios(entries, "ops", rng)

    def prepare(self, entry: dict, index: int, workdir: str) -> list[Op]:
        text, extra = _built(entry)
        paths = {"graph": os.path.join(workdir, f"{index}.el"),
                 "solution": os.path.join(workdir, f"{index}.sol.json"),
                 "sc_solution": os.path.join(workdir, f"{index}.sc.json")}
        with open(paths["graph"], "w", encoding="utf-8") as fh:
            fh.write(text)
        if "solution" in extra:
            with open(paths["sc_solution"], "w", encoding="utf-8") as fh:
                fh.write(extra["solution"])
        return [_cli_op(entry, spec_op, paths) for spec_op in entry["ops"][entry["alpha"]]]


WORKLOADS = {
    "dsp-large": LibraryWorkload(2, "solve_dsp"),
    "lsp-dag": LibraryWorkload(3, "solve_lsp"),
    "cli-mixed": CliWorkload(),
}

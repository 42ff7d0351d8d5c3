"""Alternating parent/change benchmark pairs, summarised into BENCH_<label>.json.

    python3 tools/bench_pairs.py --label 8 --base HEAD~1 --pairs 10 \\
        --workloads lsp-dag,dsp-large,cli-mixed

Run from the repository root. The base revision is exported with
`git archive` into a temporary directory (no worktree is registered, so the
repository's metadata is left as it was); the change side is the working
tree as it stands. For each workload, pair i runs the benchmark command of
BENCHMARK.json (`python3 perfbench/run.py`) once on each side with seed
`--seed + i` and the same --seconds (default: BENCHMARK.json's run_seconds),
the base first in even pairs and the change first in odd ones.

The output holds every run's metrics and, per workload and metric, each
side's median and quartiles, how many pairs the change won (ties and pairs
with a failed run count for neither side) and two verdicts: `gain` (at
least 10 pairs were run, the change won at least 9 of every 10 of them and
the medians differ by more than the base's interquartile range) and
`within_bound` (the change's median is no worse than the base's
by more than the metric's bound in BENCHMARK.json). With --trace 1 the runs
are traced, the metrics are the per-layer ones, and each run also keeps its
`spans_per_op` table (every span's calls, duration and self time per op).

Exit codes: 0 when the file was written, 1 when a run failed or reported
incorrect output (the file is still written, with the failure recorded), 2
on a bad argument or a base revision git cannot export.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str, dest: str) -> None:
    """Write the files of `rev` into `dest` (created) via git archive."""
    os.makedirs(dest)
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def run_once(root: str, command: list[str], workload: str, seed: int,
             seconds: float, trace: int) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    if argv[0] in ("python", "python3"):
        argv[0] = sys.executable
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return {"seed": seed, "wall_s": wall, "ok": False,
                "error": f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"}
    report = json.loads(lines[-2])["report"]
    result = json.loads(lines[-1])
    run = {"seed": seed, "wall_s": wall, "ok": bool(result["correct"]),
           "attempted": result["attempted"], "failed": result["failed"],
           "calibration_ms": report.get("calibration_ms"),
           "metrics": {k: v["value"] for k, v in result["metrics"].items()}}
    if "spans_per_op" in report:  # traced runs: every span's table, to see which layer moved
        run["spans_per_op"] = report["spans_per_op"]
    return run


def progress(side: str, run: dict) -> str:
    """One side of a pair's progress line: its op counts, its ops/s when the
    run reports it (a traced run does not), and FAILED when it is not ok."""
    parts = [side]
    if "attempted" in run:
        parts.append(f"{run['attempted']} ops ({run['failed']} failed)")
    if "ops_per_s" in run.get("metrics", {}):
        parts.append(f"{run['metrics']['ops_per_s']:.3f} ops/s")
    if not run["ok"]:
        parts.append("FAILED")
    return " ".join(parts)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarise(pairs: list[dict], better: dict[str, str], bounds: dict[str, float]) -> dict:
    ok = [p for p in pairs if p["base"]["ok"] and p["change"]["ok"]]
    names = sorted(set().union(*(p["base"]["metrics"] for p in ok))) if ok else []
    out = {}
    for name in names:
        rows = [(p["base"]["metrics"][name], p["change"]["metrics"][name]) for p in ok
                if name in p["base"]["metrics"] and name in p["change"]["metrics"]]
        base = [b for b, _ in rows]
        change = [c for _, c in rows]
        sign = -1 if better.get(name, "lower") == "lower" else 1
        wins = sum(1 for b, c in rows if sign * (c - b) > 0)
        losses = sum(1 for b, c in rows if sign * (c - b) < 0)
        bq1, bmed, bq3 = quartiles(base)
        cq1, cmed, cq3 = quartiles(change)
        entry = {"better": better.get(name, "lower"), "pairs": len(rows),
                 "base": {"median": bmed, "q1": bq1, "q3": bq3},
                 "change": {"median": cmed, "q1": cq1, "q3": cq3},
                 "change_wins": wins, "base_wins": losses,
                 "median_ratio": cmed / bmed if bmed else None,
                 "gain": (len(pairs) >= 10 and wins >= 0.9 * len(pairs)
                          and sign * (cmed - bmed) > bq3 - bq1)}
        if name in bounds:
            entry["bound"] = bounds[name]
            entry["within_bound"] = sign * (cmed - bmed) >= -bounds[name] * abs(bmed)
        out[name] = entry
    fail_ratio = {side: sum(p[side].get("failed", 0) for p in pairs)
                  / max(1, sum(p[side].get("attempted", 0) for p in pairs))
                  for side in ("base", "change")}
    return {"metrics": out, "fail_ratio": fail_ratio,
            "runs_not_ok": sum(1 for p in pairs for side in ("base", "change")
                               if not p[side]["ok"])}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    parser.add_argument("--base", default="HEAD", help="revision to compare against")
    parser.add_argument("--workloads", default="dsp-large,lsp-dag,cli-mixed")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="seed of pair 0")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    section = "per_layer" if args.trace else "end_to_end"
    better = {m["name"]: m["better"] for m in bench[section]}
    bounds = {m["name"]: m["bound"] for m in bench[section] if "bound" in m}
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    workloads = args.workloads.split(",")
    try:
        base_rev = git("rev-parse", args.base)
    except subprocess.CalledProcessError as err:
        reason = (err.stderr.strip().splitlines() or ["git rev-parse failed"])[0]
        print(f"error: cannot resolve {args.base!r}: {reason}", file=sys.stderr)
        return 2
    provenance = {
        "base": {"rev": base_rev, "spec": args.base},
        "change": {"rev": git("rev-parse", "HEAD"),
                   "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))},
        "command": bench["command"], "seconds": seconds, "trace": args.trace,
        "pairs": args.pairs, "seeds": [args.seed + i for i in range(args.pairs)],
        "order": "base first in even pairs, change first in odd pairs",
        "python": platform.python_version(), "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "started": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    }
    tmp = tempfile.mkdtemp(prefix="bench_pairs_")
    results = {}
    try:
        base_root = os.path.join(tmp, "base")
        export(base_rev, base_root)
        roots = {"base": base_root, "change": ROOT}
        for workload in workloads:
            pairs = []
            for i in range(args.pairs):
                seed = args.seed + i
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_once(roots[side], bench["command"], workload, seed,
                                          seconds, args.trace)
                pairs.append(pair)
                print(f"{workload} pair {i + 1}/{args.pairs}: "
                      + " | ".join(progress(side, pair[side]) for side in order),
                      file=sys.stderr, flush=True)
            results[workload] = {"summary": summarise(pairs, better, bounds), "pairs": pairs}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    provenance["finished"] = datetime.datetime.now(
        datetime.timezone.utc).isoformat(timespec="seconds")
    out = os.path.join(ROOT, f"BENCH_{args.label}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"label": args.label, "provenance": provenance, "workloads": results},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(out)
    bad = any(r["summary"]["runs_not_ok"] for r in results.values())
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

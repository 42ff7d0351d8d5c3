"""Smoke test for the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload with --smoke (a few instances, a fraction of a second
of measuring): once untraced and twice traced with the same seed. Asserts
that every end-to-end metric is printed with its unit, that fail_ratio is 0,
that the traced run prints every per-layer metric with its unit, that the
metric lists match BENCHMARK.json, and that the per-layer counts repeat
exactly. Also checks that a copy holding only BENCHMARK.json and the
benchmark's own files fails without printing a result. Exits with status 0
when all of that holds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

from run import END_TO_END_UNITS, WORKLOAD_NAMES  # noqa: E402
from tracing import COUNT_METRICS  # noqa: E402


def run(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def check_bare_copy() -> None:
    """Without the library source the benchmark must fail, printing nothing."""
    bare = os.path.join(ROOT, ".perfbench_work", f"bare-{os.getpid()}")
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", WORKLOAD_NAMES[0],
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(bare))
        except OSError:
            pass  # a benchmark run still uses it
    assert proc.returncode != 0 and not proc.stdout, (proc.returncode, proc.stdout)


def units(metrics: dict) -> dict:
    return {name: metric["unit"] for name, metric in metrics.items()}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOAD_NAMES)
    for workload in WORKLOAD_NAMES:
        report, result = run(workload, 0)
        assert result["correct"] and result["failed"] == 0, report["failures"]
        assert units(report["end_to_end"]) == END_TO_END_UNITS, report["end_to_end"]
        assert report["end_to_end"]["fail_ratio"]["value"] == 0
        assert units(result["metrics"]) == end_to_end, result["metrics"]
        counts = []
        for _ in range(2):
            report, result = run(workload, 1)
            assert result["correct"] and result["failed"] == 0, report["failures"]
            assert units(result["metrics"]) == per_layer, result["metrics"]
            counts.append({name: result["metrics"][name]["value"] for name in COUNT_METRICS})
        assert counts[0] == counts[1], counts
        print(f"{workload}: ok ({report['instances']} instances, counts per op {counts[0]})")
    check_bare_copy()
    print("bare copy: fails without a result, as it should")
    return 0


if __name__ == "__main__":
    sys.exit(main())

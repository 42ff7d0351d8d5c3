"""Benchmark for the mcps solvers and CLI.

    python3 perfbench/run.py --workload dsp-large --seed 1 --seconds 30 --trace 0

Run from the repository root. The workloads (see workloads.py) are
dsp-large, lsp-dag and cli-mixed. Each run is one process, a closed loop
with one client: the next operation starts when the previous one and its
output check have finished. No threads, no subprocesses.

With --trace 0 the run measures end-to-end metrics for --seconds, stretched
up to twice that until at least MIN_SAMPLES ops have run, and prints them;
with --trace 1 it runs complete passes over the operation list, each
operation once untraced and once traced, and prints per-layer metrics and
the tracing overhead. The last line of stdout is one JSON object with keys
correct, attempted, failed and metrics; the line before it is a JSON report
with every end-to-end metric including fail_ratio, sample counts, the
seed, provenance and the limits of the measurement. setup_s is the median
time to generate and serialise one instance, over all instances set up once
before and once after the measured loop.

--smoke shrinks a run to a few operations (used by smoke.py).

Exit codes: 0 when a result was printed (check "correct"), 2 when the
library source is missing or an argument is invalid, 3 when a generated
instance no longer matches expected.json.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import random
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOAD_NAMES = ("dsp-large", "lsp-dag", "cli-mixed")

END_TO_END_UNITS = {"ops_per_s": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
                    "fail_ratio": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}

# Timed samples a run takes at least, so that ten or more lie beyond p90,
# unless that would stretch the measured loop past twice --seconds.
MIN_SAMPLES = 110

LIMITS = ("wall clock only (time.perf_counter); no CPU pinning, frequency control "
          "or cache dropping; other tenants of the host add noise; gc.collect() "
          "runs between operations, outside the timed region")


def calibration_ms() -> float:
    """Best of three timings of a fixed pure-Python loop: an ungated gauge
    of how fast this host ran Python during the run."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc + i * i) % 1_000_003
        best = min(best, time.perf_counter() - start)
    return best * 1000


def provenance(args) -> dict:
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(), "host": platform.node(),
            "nproc": os.cpu_count(), "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke}


def run_op(op, failures: list, tracer=contextlib.nullcontext()) -> float:
    """Time one operation (under `tracer`), then check its output outside
    the timed and traced region. Returns the wall time; appends to
    `failures` when the op failed."""
    gc.collect()
    with tracer:
        start = time.perf_counter()
        try:
            result = op.call()
            error = None
        except Exception as exc:  # a failed op is counted, not fatal
            error = f"raised {exc!r}"
        elapsed = time.perf_counter() - start
    if error is None:
        try:
            error = op.check(result)
        except Exception as exc:
            error = f"check raised {exc!r}"
    if error is not None:
        failures.append(f"{op.label}: {error}")
    return elapsed


def set_up(workload, entries: list, workdir: str) -> tuple[list, list]:
    """Build every instance: the ops, and each instance's set-up time."""
    ops, times = [], []
    for index, entry in enumerate(entries):
        gc.collect()
        start = time.perf_counter()
        ops += workload.prepare(entry, index, workdir)
        times.append(time.perf_counter() - start)
    return ops, times


def measure(ops: list, seconds: float, min_samples: int) -> tuple[list, list]:
    """Closed loop over `ops`, cycling, for `seconds` of wall clock and at
    least `min_samples` ops (within twice `seconds`)."""
    failures: list = []
    run_op(ops[0], failures)  # warm-up: checked and counted, not timed
    latencies: list = []
    start = time.perf_counter()
    while True:
        latencies.append(run_op(ops[len(latencies) % len(ops)], failures))
        elapsed = time.perf_counter() - start
        if elapsed >= 2 * seconds or (elapsed >= seconds and len(latencies) >= min_samples):
            return latencies, failures


def measure_traced(ops: list, seconds: float, tracer) -> tuple[dict, int, list]:
    """Complete passes over `ops`, each op untraced and then traced, while
    another pass still fits in `seconds` (at least one pass). Per-op
    averages over whole passes repeat exactly for counts, whatever the
    number of passes."""
    failures: list = []
    untraced = traced = 0.0
    passes = 0
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for op in ops:
            untraced += run_op(op, failures)
            traced += run_op(op, failures, tracer)
        passes += 1
        now = time.perf_counter()
        if 2 * now - pass_start - start > seconds:
            break
    count = passes * len(ops)
    metrics = tracer.layer_metrics(count)
    metrics["trace.overhead_ratio"] = {"value": traced / untraced, "unit": "ratio"}
    metrics["trace.layer_share"] = {"value": tracer.self_total() / traced, "unit": "ratio"}
    return metrics, count, failures


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="a few instances per workload")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mcps", "__init__.py")):
        print(f"error: library source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from tracing import LAYER_METRICS, Tracer
    from workloads import WORKLOADS, DriftError, scratch_dir

    calibration = [calibration_ms()]
    loadavg = [os.getloadavg()]
    workload = WORKLOADS[args.workload]
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        pool = json.load(fh)[args.workload]
    entries = workload.select(pool, random.Random(args.seed), args.smoke)

    with scratch_dir(ROOT) as workdir:
        try:
            ops, setup_times = set_up(workload, entries, workdir)
            setup_totals = [sum(setup_times)]
            if args.trace:
                tracer = Tracer()
                metrics, traced_ops, failures = measure_traced(ops, args.seconds, tracer)
                attempted = 2 * traced_ops
            else:
                latencies, failures = measure(ops, args.seconds,
                                              1 if args.smoke else MIN_SAMPLES)
                attempted = len(latencies) + 1
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                # A second set-up, apart in time from the first, so that one
                # slow stretch of the host does not decide setup_s.
                again = set_up(workload, entries, workdir)[1]
                setup_times += again
                setup_totals.append(sum(again))
        except DriftError as err:
            print(f"error: {err}", file=sys.stderr)
            return 3

    calibration.append(calibration_ms())
    loadavg.append(os.getloadavg())
    report = {"provenance": provenance(args), "limits": LIMITS,
              "instances": len(entries), "ops_per_pass": len(ops),
              "attempted": attempted, "failed": len(failures),
              "fail_ratio": len(failures) / attempted, "failures": failures[:5],
              "setup_totals_s": setup_totals, "calibration_ms": calibration,
              "loadavg_1m": [avg[0] for avg in loadavg]}
    if not args.trace:
        p90 = statistics.quantiles(latencies, n=10)[-1] if len(latencies) > 1 else latencies[0]
        values = {
            # Failed ops are in the latency samples but not in the throughput.
            "ops_per_s": (len(latencies) - len(failures)) / sum(latencies),
            "latency_p50_ms": statistics.median(latencies) * 1000,
            "latency_p90_ms": p90 * 1000,
            "fail_ratio": len(failures) / attempted,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
        }
        report["end_to_end"] = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                                for k, v in values.items()}
        report["samples"] = len(latencies)
        report["samples_beyond_p90"] = sum(1 for t in latencies if t > p90)
        # fail_ratio is 0 on a good run, so it travels as attempted/failed.
        metrics = {k: v for k, v in report["end_to_end"].items() if k != "fail_ratio"}
    else:
        report["per_layer"] = metrics
        report["per_layer_moves"] = {name: moves for name, *_, moves in LAYER_METRICS}
        report["spans_per_op"] = tracer.table(traced_ops)
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

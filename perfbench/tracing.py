"""Per-layer spans and counters, collected from outside the library.

`Tracer` replaces each layer function listed in `SPANS` with a timing
wrapper at every `mcps` module that binds the function by name (the
defining module, importers such as `solver.max_flow_value`, and the package
namespace), and puts the originals back when it is removed. Nothing in
`src/` changes. A span's self time is its duration minus the time covered by
the spans it encloses, so self times of all spans partition the time spent
inside the library.

`LAYER_METRICS` lists the per-layer metrics the traced run prints, each with
the end-to-end metric it should move and on which workload.
"""

from __future__ import annotations

import sys
import time

# (module, function) pairs that get a span. Spans name the defining module,
# with the leading underscore of `_wsearch` dropped.
SPANS = [
    ("graphs", "parse_edge_list"),
    ("spdecomp", "recognize_dsp"),
    ("spdecomp", "make_clean"),
    ("lsp", "is_lsp"),
    ("lsp", "check_p1"),
    ("lsp", "check_p2"),
    ("lsp", "eas_family"),
    ("flow", "max_flow_value"),
    ("flow", "check_all_pairs"),
    ("flow", "pair_requirements"),
    ("flow", "feasible"),
    ("solver", "solve"),
    ("solver", "solve_dsp"),
    ("solver", "solve_lsp"),
    ("solver", "solve_med"),
    ("solver", "mcps_star_value"),
    ("oracle", "brute_force_mcps"),
    ("oracle", "brute_force_med"),
    ("_wsearch", "find_w_subdivision_graph"),
    ("cli", "main"),
]

# Per-layer metrics: name, unit, source span, source field, and what should
# move when the layer gets faster. Fields: calls and s (outermost duration)
# per traced op, self_s per traced op, zero_ratio over all calls.
LAYER_METRICS = [
    ("graphs.parse_edge_list.s", "s/op", "graphs.parse_edge_list", "s",
     "latency_p50_ms on dsp-large"),
    ("spdecomp.recognize_dsp.calls", "calls/op", "spdecomp.recognize_dsp", "calls",
     "latency_p50_ms on dsp-large; ops_per_s on lsp-dag"),
    ("spdecomp.recognize_dsp.s", "s/op", "spdecomp.recognize_dsp", "s",
     "latency_p50_ms on dsp-large; ops_per_s on lsp-dag"),
    ("spdecomp.make_clean.s", "s/op", "spdecomp.make_clean", "s",
     "latency_p50_ms on dsp-large"),
    ("lsp.check_p1.s", "s/op", "lsp.check_p1", "s",
     "latency_p90_ms on cli-mixed; ops_per_s on lsp-dag"),
    ("lsp.check_p2.s", "s/op", "lsp.check_p2", "s",
     "latency_p90_ms on cli-mixed; ops_per_s on lsp-dag"),
    ("lsp.eas_family.s", "s/op", "lsp.eas_family", "s",
     "latency_p90_ms on cli-mixed; ops_per_s on lsp-dag"),
    ("flow.max_flow_value.calls", "calls/op", "flow.max_flow_value", "calls",
     "ops_per_s on lsp-dag and cli-mixed"),
    ("flow.max_flow_value.s", "s/op", "flow.max_flow_value", "s",
     "ops_per_s on lsp-dag and cli-mixed"),
    ("flow.max_flow_value.zero_ratio", "ratio", "flow.max_flow_value", "zero_ratio",
     "ops_per_s on lsp-dag and cli-mixed"),
    ("flow.check_all_pairs.calls", "calls/op", "flow.check_all_pairs", "calls",
     "latency_p50_ms on cli-mixed"),
    ("flow.check_all_pairs.s", "s/op", "flow.check_all_pairs", "s",
     "latency_p50_ms on cli-mixed"),
    ("solver.solve_dsp.self_s", "s/op", "solver.solve_dsp", "self_s",
     "latency_p50_ms on dsp-large"),
    ("solver.solve_lsp.self_s", "s/op", "solver.solve_lsp", "self_s",
     "ops_per_s on lsp-dag"),
    ("oracle.brute_force_mcps.s", "s/op", "oracle.brute_force_mcps", "s",
     "ops_per_s on cli-mixed"),
    ("oracle.feasible.calls", "calls/op", "flow.feasible", "calls",
     "ops_per_s on cli-mixed"),
    ("wsearch.find_w_subdivision_graph.calls", "calls/op",
     "wsearch.find_w_subdivision_graph", "calls", "latency_p50_ms on cli-mixed"),
    ("wsearch.find_w_subdivision_graph.s", "s/op",
     "wsearch.find_w_subdivision_graph", "s", "latency_p50_ms on cli-mixed"),
    ("cli.main.self_s", "s/op", "cli.main", "self_s", "latency_p50_ms on cli-mixed"),
]

# Deterministic for a given seed: identical across runs of the same code.
COUNT_METRICS = [name for name, unit, *_ in LAYER_METRICS if unit == "calls/op"]


class _Stat:
    __slots__ = ("calls", "s", "self_s", "zeros", "depth")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.zeros = 0
        self.depth = 0


class Tracer:
    """Install with `with tracer:`; statistics accumulate across installs."""

    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self._open: list[float] = []  # time covered by children, per open span
        self._patches = []
        bound = [m for name, m in sorted(sys.modules.items())
                 if (name == "mcps" or name.startswith("mcps.")) and m is not None]
        for module, function in SPANS:
            original = getattr(sys.modules[f"mcps.{module}"], function)
            wrapper = self._wrap(f"{module.lstrip('_')}.{function}", original)
            for m in bound:
                for attr, value in vars(m).items():
                    if value is original:
                        self._patches.append((m, attr, original, wrapper))

    def _wrap(self, name: str, fn):
        stat = self.stats[name] = _Stat()
        open_spans = self._open
        clock = time.perf_counter
        count_zeros = name == "flow.max_flow_value"

        def traced(*args, **kwargs):
            open_spans.append(0.0)
            stat.depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat.depth -= 1
                covered = open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed
                stat.calls += 1
                stat.self_s += elapsed - covered
                if stat.depth == 0:
                    stat.s += elapsed
            if count_zeros and result == 0:
                stat.zeros += 1
            return result

        return traced

    def __enter__(self):
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)
        return False

    def self_total(self) -> float:
        return sum(stat.self_s for stat in self.stats.values())

    def table(self, ops: int) -> dict:
        """Every span's calls, duration and self time per op."""
        return {name: {"calls": stat.calls / ops, "s": stat.s / ops,
                       "self_s": stat.self_s / ops}
                for name, stat in self.stats.items()}

    def layer_metrics(self, ops: int) -> dict:
        out = {}
        for name, unit, span, field, _ in LAYER_METRICS:
            stat = self.stats[span]
            if field == "zero_ratio":
                value = stat.zeros / stat.calls if stat.calls else 0.0
            else:
                value = getattr(stat, field) / ops
            out[name] = {"value": value, "unit": unit}
        return out

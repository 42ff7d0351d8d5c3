"""Unit-capacity max flow, coverage predicates and retention-ratio evaluation.

This module is the semantic ground truth every solver output is checked
against. All arithmetic on ratios is exact (integers / fractions); there is
no floating point anywhere in coverage logic.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Optional

from .graphs import DirectedGraph, EdgeSet

_RATIO_RE = re.compile(r"^(\d+)/(\d+)$")


class RetentionRatio:
    """An exact rational retention ratio p/q with 0 < p < q, lowest terms."""

    __slots__ = ("p", "q")

    def __init__(self, p: int, q: int):
        p, q = int(p), int(q)
        if q <= 0 or p <= 0:
            raise ValueError("retention ratio must have positive numerator and denominator")
        g = gcd(p, q)
        p, q = p // g, q // g
        if not p < q:
            raise ValueError(f"retention ratio must lie strictly inside (0,1), got {p}/{q}")
        self.p = p
        self.q = q

    @classmethod
    def parse(cls, text: str) -> "RetentionRatio":
        m = _RATIO_RE.match(text.strip())
        if not m:
            raise ValueError(f"retention ratio must look like 'p/q', got {text!r}")
        return cls(int(m.group(1)), int(m.group(2)))

    def as_fraction(self) -> Fraction:
        return Fraction(self.p, self.q)

    def required(self, capacity: int) -> int:
        """ceil(p*capacity/q), exactly."""
        return -((-self.p * capacity) // self.q)

    def __eq__(self, other):
        return isinstance(other, RetentionRatio) and (self.p, self.q) == (other.p, other.q)

    def __lt__(self, other):
        return self.p * other.q < other.p * self.q

    def __le__(self, other):
        return self.p * other.q <= other.p * self.q

    def __hash__(self):
        return hash((self.p, self.q))

    def __str__(self):
        return f"{self.p}/{self.q}"

    def __repr__(self):
        return f"RetentionRatio({self.p}, {self.q})"


@dataclass(frozen=True)
class Violation:
    s: int
    t: int
    capacity: int
    subgraph_capacity: int
    required: int


@dataclass(frozen=True)
class CoverageReport:
    feasible: bool
    first_violation: Optional[Violation]
    worst_ratio: Fraction


def max_flow_value(graph: DirectedGraph, s: int, t: int,
                   edges: Optional[Iterable[int]] = None,
                   limit: Optional[int] = None) -> int:
    """Value of a maximum s-t flow under unit capacities.

    Equals the maximum number of edge-disjoint s-t paths. Returns 0 when t
    is unreachable from s. Pairs with s == t return the sentinel 0 and are
    treated as trivially covered by all coverage predicates.

    `edges` restricts the computation to a subset of edge indices; `limit`
    stops augmenting once the given value is reached (the answer is then
    min(limit, true value)).
    """
    if not (0 <= s < graph.n and 0 <= t < graph.n):
        raise ValueError("terminal out of range")
    if s == t:
        return 0
    indices = range(graph.m) if edges is None else edges
    # Residual network: arc 2k is edge k (cap 1), arc 2k+1 its reverse (cap 0).
    to: list[int] = []
    cap: list[int] = []
    adj: list[list[int]] = [[] for _ in range(graph.n)]
    for i in sorted(indices) if edges is not None else indices:
        u, v = graph.edges[i]
        adj[u].append(len(to))
        to.append(v)
        cap.append(1)
        adj[v].append(len(to))
        to.append(u)
        cap.append(0)
    flow = 0
    n = graph.n
    while limit is None or flow < limit:
        parent_arc = [-1] * n
        parent_arc[s] = -2
        queue = deque([s])
        while queue:
            v = queue.popleft()
            if v == t:
                break
            for a in adj[v]:
                w = to[a]
                if cap[a] and parent_arc[w] == -1:
                    parent_arc[w] = a
                    queue.append(w)
        if parent_arc[t] == -1:
            break
        v = t
        while v != s:
            a = parent_arc[v]
            cap[a] -= 1
            cap[a ^ 1] += 1
            v = to[a ^ 1]
        flow += 1
    return flow


def _indices_of(edge_set: "EdgeSet | Iterable[int]") -> list[int]:
    if isinstance(edge_set, EdgeSet):
        return edge_set.sorted()
    return sorted(set(edge_set))


def is_covered(graph: DirectedGraph, edge_set, s: int, t: int,
               alpha: RetentionRatio) -> bool:
    """True iff the subgraph keeps at least ceil(alpha * capacity) flow for (s,t)."""
    if s == t:
        return True
    need = alpha.required(max_flow_value(graph, s, t))
    if need == 0:
        return True
    return max_flow_value(graph, s, t, edges=_indices_of(edge_set), limit=need) >= need


def check_all_pairs(graph: DirectedGraph, edge_set, alpha: RetentionRatio) -> CoverageReport:
    """Coverage report over all ordered pairs, scanned in ascending (s,t) order.

    Pairs with s == t or zero capacity in the host graph never appear as
    violations, and targets unreachable from s are skipped without a flow;
    the worst ratio is the exact minimum of subgraph/host capacity over
    pairs with positive host capacity (1 when there are none).
    """
    indices = _indices_of(edge_set)
    first: Optional[Violation] = None
    worst = Fraction(1)
    for s in range(graph.n):
        for t in sorted(graph.reachable_from(s)):
            if t == s:
                continue
            lam = max_flow_value(graph, s, t)
            lam_sub = max_flow_value(graph, s, t, edges=indices)
            ratio = Fraction(lam_sub, lam)
            if ratio < worst:
                worst = ratio
            need = alpha.required(lam)
            if lam_sub < need and first is None:
                first = Violation(s, t, lam, lam_sub, need)
    return CoverageReport(feasible=first is None, first_violation=first, worst_ratio=worst)


def feasible(graph: DirectedGraph, edge_indices: Iterable[int],
             requirements: list[tuple[int, int, int]]) -> bool:
    """Early-exit feasibility against precomputed (s, t, required) rows."""
    indices = sorted(set(edge_indices))
    for s, t, need in requirements:
        if max_flow_value(graph, s, t, edges=indices, limit=need) < need:
            return False
    return True


def pair_requirements(graph: DirectedGraph, alpha: Optional[RetentionRatio],
                      med: bool = False) -> list[tuple[int, int, int]]:
    """(s, t, required) for every ordered pair with a positive requirement.

    With med=True the requirement is min(capacity, 1), i.e. reachability
    must be preserved exactly.
    """
    rows = []
    for s in range(graph.n):
        reach = graph.reachable_from(s)
        for t in range(graph.n):
            if t == s or t not in reach:
                continue
            if med:
                rows.append((s, t, 1))
                continue
            lam = max_flow_value(graph, s, t)
            need = alpha.required(lam)
            if need > 0:
                rows.append((s, t, need))
    return rows


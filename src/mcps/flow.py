"""Unit-capacity max flow, coverage predicates and retention-ratio evaluation.

This module is the semantic ground truth every solver output is checked
against. All arithmetic on ratios is exact (integers / fractions); there is
no floating point anywhere in coverage logic.

Every flow runs on one residual network per graph, built by `_network` and
memoized in `graph._cache`, through one augmenting-path kernel, `_augment`.
A flow owns only its list of arc capacities: an edge subset is 1 on the
forward arcs of its edges and 0 elsewhere, which is the same as leaving the
other arcs out, so a caller builds a subset's capacities once and copies
them per pair. `check_all_pairs` computes the subgraph's flow first, then
opens the remaining edges and keeps augmenting: a maximum flow of the
subgraph is a feasible flow of the host, and augmenting from any feasible
flow reaches the host's maximum, so that pair costs no second cold start.

A unit-capacity s-t flow never exceeds min(outdeg(s), indeg(t)), so a pair
with that bound at 1 has flow 1 iff s reaches t: the all-pairs scans read
such pairs from one BFS (`_bfs`) per source, with no capacity copy or flow.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import index
from typing import Iterable, Optional

from .graphs import DirectedGraph, _as_sorted_indices, ascii_int


class RetentionRatio(Fraction):
    """An exact retention ratio: a `Fraction` of integers, strictly inside (0, 1)."""

    __slots__ = ()

    def __new__(cls, p: int, q: int):
        p, q = index(p), index(q)
        if q <= 0 or p <= 0:
            raise ValueError("retention ratio must have positive numerator and denominator")
        self = super().__new__(cls, p, q)
        if not self < 1:
            raise ValueError(f"retention ratio must lie strictly inside (0,1), "
                             f"got {self.numerator}/{self.denominator}")
        return self

    @classmethod
    def parse(cls, text: str) -> "RetentionRatio":
        p, _, q = text.strip().partition("/")
        try:
            p, q = ascii_int(p), ascii_int(q)
        except ValueError:
            raise ValueError(f"retention ratio must look like 'p/q', got {text!r}") from None
        return cls(p, q)

    def required(self, capacity: int) -> int:
        """ceil(alpha * capacity), exactly."""
        return -((-self.numerator * capacity) // self.denominator)


@dataclass(frozen=True)
class Violation:
    s: int
    t: int
    capacity: int
    subgraph_capacity: int
    required: int


@dataclass(frozen=True)
class CoverageReport:
    first_violation: Optional[Violation]
    worst_ratio: Fraction

    @property
    def feasible(self) -> bool:
        return self.first_violation is None


def _network(graph: DirectedGraph) -> tuple[list[int], list[list[int]]]:
    """The residual network `(to, adj)` over all edges, built once per graph.

    Arc 2k is edge k and arc 2k+1 its reverse; `adj[v]` lists the arcs
    leaving v in edge-index order. Capacities live in a separate list per
    flow, so the network itself is never mutated.
    """
    net = graph._cache.get("flow_network")
    if net is None:
        to: list[int] = []
        adj: list[list[int]] = [[] for _ in range(graph.n)]
        for k, (u, v) in enumerate(graph.edges):
            adj[u].append(2 * k)
            adj[v].append(2 * k + 1)
            to.append(v)
            to.append(u)
        net = graph._cache["flow_network"] = (to, adj)
    return net


def _caps(m: int, indices: Optional[list[int]]) -> list[int]:
    """Arc capacities of an edge subset: 1 on the forward arc of each of its
    edges, 0 on every other arc (None means every edge)."""
    if indices is None:
        return [1, 0] * m
    cap = [0] * (2 * m)
    for i in indices:
        cap[2 * i] = 1
    return cap


def _bfs(net, cap: list[int], n: int, s: int, t: Optional[int] = None) -> list[int]:
    """Parent arc of every vertex that s reaches through arcs with capacity
    left in `cap` (-2 at s, -1 where not reached), stopping as soon as t
    has one: the parent arc of a vertex is fixed when it is first found."""
    to, adj = net
    parent_arc = [-1] * n
    parent_arc[s] = -2
    queue = [s]
    for v in queue:  # visits what the loop appends, in BFS order
        for a in adj[v]:
            w = to[a]
            if cap[a] and parent_arc[w] == -1:
                parent_arc[w] = a
                if w == t:
                    return parent_arc
                queue.append(w)
    return parent_arc


def _augment(net, cap: list[int], n: int, s: int, t: int,
             limit: Optional[int]) -> int:
    """Push unit BFS augmenting paths from s to t through `cap` (mutated)
    until none is left or `limit` of them were found; returns their number."""
    to = net[0]
    flow = 0
    while limit is None or flow < limit:
        parent_arc = _bfs(net, cap, n, s, t)
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
    indices = None if edges is None else _as_sorted_indices(edges, graph.m)
    if s == t:
        return 0
    if indices is None:
        # Every s-t path leaves s and enters t on an edge of its own, so the
        # value never exceeds this bound; stopping there skips the BFS that
        # would only prove the flow maximal.
        bound = min(graph.out_degree(s), graph.in_degree(t))
        limit = bound if limit is None else min(limit, bound)
    return _augment(_network(graph), _caps(graph.m, indices), graph.n, s, t, limit)


def _degrees(graph: DirectedGraph, indices: list[int]) -> tuple[list[int], list[int]]:
    """Out- and in-degrees of every vertex in the subgraph of `indices`."""
    out = [0] * graph.n
    inc = [0] * graph.n
    for i in indices:
        u, v = graph.edges[i]
        out[u] += 1
        inc[v] += 1
    return out, inc


def is_covered(graph: DirectedGraph, edge_set, s: int, t: int,
               alpha: RetentionRatio) -> bool:
    """True iff the subgraph keeps at least ceil(alpha * capacity) flow for (s,t)."""
    indices = _as_sorted_indices(edge_set, graph.m)
    if s == t:
        return True
    need = alpha.required(max_flow_value(graph, s, t))
    if need == 0:
        return True
    return max_flow_value(graph, s, t, edges=indices, limit=need) >= need


def check_all_pairs(graph: DirectedGraph, edge_set, alpha: RetentionRatio) -> CoverageReport:
    """Coverage report over all ordered pairs, scanned in ascending (s,t) order.

    Pairs with s == t or zero capacity in the host graph never appear as
    violations, and targets unreachable from s are skipped without a flow;
    the worst ratio is the exact minimum of subgraph/host capacity over
    pairs with positive host capacity (1 when there are none).

    A pair bounded by 1 keeps its capacity 1 iff the subgraph's BFS from s
    reached t. Every other pair first computes the subgraph's flow, then
    opens the other edges and keeps augmenting to the host's maximum.
    """
    indices = _as_sorted_indices(edge_set, graph.m)
    net = _network(graph)
    n = graph.n
    sub = _caps(graph.m, indices)
    closed = [a for a in range(0, 2 * graph.m, 2) if not sub[a]]
    sub_out, sub_in = _degrees(graph, indices)
    first: Optional[Violation] = None
    worst = Fraction(1)
    for s in range(n):
        out_s = graph.out_degree(s)
        if not out_s:  # reaches nothing
            continue
        reached = _bfs(net, sub, n, s)
        for t in sorted(graph.reachable_from(s)):
            if t == s:
                continue
            in_t = graph.in_degree(t)
            if out_s == 1 or in_t == 1:
                if reached[t] == -1:  # capacity 1, requirement 1, none kept
                    worst = Fraction(0)
                    first = first or Violation(s, t, 1, 0, 1)
                continue
            # A flow never exceeds min(outdeg(s), indeg(t)) of its graph, so
            # both flows stop at that bound without a last, fruitless BFS.
            cap = sub[:]
            lam_sub = _augment(net, cap, n, s, t, min(sub_out[s], sub_in[t]))
            for a in closed:
                cap[a] = 1
            lam = lam_sub + _augment(net, cap, n, s, t, min(out_s, in_t) - lam_sub)
            if lam_sub * worst.denominator < worst.numerator * lam:
                worst = Fraction(lam_sub, lam)
            need = alpha.required(lam)
            if lam_sub < need and first is None:
                first = Violation(s, t, lam, lam_sub, need)
    return CoverageReport(first_violation=first, worst_ratio=worst)


def feasible(graph: DirectedGraph, edge_indices: Iterable[int],
             requirements: list[tuple[int, int, int]]) -> bool:
    """Early-exit feasibility against precomputed (s, t, required) rows; a
    row needing 1 reads the subgraph's BFS from s, one per run of equal s."""
    indices = _as_sorted_indices(edge_indices, graph.m)
    net = _network(graph)
    base = _caps(graph.m, indices)
    source = reached = None
    for s, t, need in requirements:
        if need == 1:
            if s != source:
                source, reached = s, _bfs(net, base, graph.n, s)
            if reached[t] == -1:
                return False
        elif _augment(net, base[:], graph.n, s, t, need) < need:
            return False
    return True


def pair_requirements(graph: DirectedGraph, alpha: RetentionRatio) -> list[tuple[int, int, int]]:
    """(s, t, ceil(alpha * capacity)) for every ordered pair s != t with an
    s-t path, in ascending order. No capacity exceeds m, so at alpha =
    1/(m+2) each needs 1: reachability is kept exactly (the MED requirement).
    """
    rows = []
    for s in range(graph.n):
        for t in sorted(graph.reachable_from(s) - {s}):
            # t is reachable, so its capacity is at least 1 and so is its
            # requirement. The capacity never exceeds min(outdeg(s), indeg(t)),
            # so when that bound needs 1, so does the pair, with no flow.
            need = alpha.required(min(graph.out_degree(s), graph.in_degree(t)))
            if need > 1:
                need = alpha.required(max_flow_value(graph, s, t))
            rows.append((s, t, need))
    return rows

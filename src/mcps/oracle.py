"""Exponential-time ground-truth solvers for validating the fast paths.

Everything here is deliberately naive so it can be audited by eye. Besides
mandatory-edge pruning (an edge that is the unique simple path between its
endpoints belongs to every feasible solution), a degree filter rejects a
candidate with too few edges out of a source or into a sink, as a unit s-t
flow never exceeds min(outdeg(s), indeg(t)), and sizes too small to pass it
are skipped. The filter is a necessary condition only: the package's one
max-flow kernel (`feasible`) decides each candidate that passes. Budgets
are hard errors, never silent truncation, checked before any flow.
"""

from __future__ import annotations

from itertools import combinations

from .errors import BudgetExceededError
from .flow import RetentionRatio, feasible, max_flow_value, pair_requirements
from .graphs import DirectedGraph, EdgeSet
from .solution import Solution

DEFAULT_EDGE_BUDGET = 16


def _mandatory_edges(graph: DirectedGraph) -> list[int]:
    """Edges e = (u, v) that are the only simple u-v path. In a simple graph
    any other simple u-v path avoids e, so e is the only one exactly when
    the u-v max-flow is 1. Cached on the graph: the MCPS and MED
    enumerations of one solve both start from them."""
    if "mandatory_edges" not in graph._cache:
        graph._cache["mandatory_edges"] = [e for e, (u, v) in enumerate(graph.edges)
                                           if max_flow_value(graph, u, v, limit=2) == 1]
    return graph._cache["mandatory_edges"]


def _degree_rows(graph: DirectedGraph, requirements) -> tuple[list[tuple[int, int]], int]:
    """The degree rows of `requirements`, and the fewest edges that pass them.

    A row is (edge mask, need): a vertex's out-edges with its largest need
    as a source, or its in-edges with its largest need as a sink. Distinct
    vertices have disjoint out-edge sets, and disjoint in-edge sets, so a
    set passing every row has at least max(sum of out needs, sum of in
    needs) edges."""
    out_need, in_need = [0] * graph.n, [0] * graph.n
    for s, t, need in requirements:
        out_need[s] = max(out_need[s], need)
        in_need[t] = max(in_need[t], need)
    rows = [(sum(1 << e for e, _ in edges(v)), needs[v]) for edges, needs in
            ((graph.out_edges, out_need), (graph.in_edges, in_need))
            for v in range(graph.n) if needs[v]]
    return rows, max(sum(out_need), sum(in_need))


def _minimum_feasible(graph: DirectedGraph, alpha: RetentionRatio,
                      budget_edges: int) -> frozenset[int]:
    """Smallest superset of the mandatory edges feasible at alpha, ties broken
    by the lexicographically smallest sorted index tuple (combinations order).

    A candidate edge mask goes to `feasible` only if it passes every degree
    row (a necessary condition only); sizes below the rows' bound are skipped."""
    if graph.m > budget_edges:
        raise BudgetExceededError(
            f"brute force limited to {budget_edges} edges, graph has {graph.m}")
    requirements = pair_requirements(graph, alpha)
    mandatory = _mandatory_edges(graph)
    base = sum(1 << e for e in mandatory)
    bits = [1 << e for e in range(graph.m) if not base >> e & 1]
    rows, fewest = _degree_rows(graph, requirements)
    for k in range(max(fewest - len(mandatory), 0), len(bits) + 1):
        for combo in combinations(bits, k):
            mask = base + sum(combo)
            if all((mask & row).bit_count() >= need for row, need in rows):
                candidate = [e for e in range(graph.m) if mask >> e & 1]
                if feasible(graph, candidate, requirements):
                    return frozenset(candidate)
    raise AssertionError("full edge set must be feasible")


def brute_force_mcps(graph: DirectedGraph, alpha: RetentionRatio,
                     budget: int = DEFAULT_EDGE_BUDGET) -> Solution:
    """A minimum-cardinality feasible edge set, by enumeration."""
    chosen = _minimum_feasible(graph, alpha, budget)
    return Solution(edges=EdgeSet(chosen, graph.m), algorithm="oracle",
                    alpha=alpha, mcps_star=None)


def brute_force_med(graph: DirectedGraph, budget: int = DEFAULT_EDGE_BUDGET) -> EdgeSet:
    """Minimum edge set preserving the reachability relation, by enumeration
    at alpha = 1/(m+2), where every pair with a path needs one."""
    return EdgeSet(_minimum_feasible(graph, RetentionRatio(1, graph.m + 2), budget), graph.m)

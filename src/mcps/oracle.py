"""Exponential-time ground-truth solvers for validating the fast paths.

Everything here is deliberately naive so it can be audited by eye; the only
optimization is mandatory-edge pruning (an edge that is the unique simple
path between its endpoints belongs to every feasible solution), decided by
the package's one max-flow kernel. Budgets are hard errors, never silent
truncation.
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
    the u-v max-flow is 1."""
    return [e for e, (u, v) in enumerate(graph.edges)
            if max_flow_value(graph, u, v, limit=2) == 1]


def _minimum_feasible(graph: DirectedGraph, requirements, budget_edges: int) -> frozenset[int]:
    """Smallest feasible superset of the mandatory edges, ties broken by the
    lexicographically smallest sorted index tuple (combinations order)."""
    if graph.m > budget_edges:
        raise BudgetExceededError(
            f"brute force limited to {budget_edges} edges, graph has {graph.m}")
    mandatory = _mandatory_edges(graph)
    base = frozenset(mandatory)
    free = [e for e in range(graph.m) if e not in base]
    for k in range(len(free) + 1):
        for combo in combinations(free, k):
            candidate = base | set(combo)
            if feasible(graph, candidate, requirements):
                return frozenset(candidate)
    raise AssertionError("full edge set must be feasible")


def brute_force_mcps(graph: DirectedGraph, alpha: RetentionRatio,
                     budget: int = DEFAULT_EDGE_BUDGET) -> Solution:
    """A minimum-cardinality feasible edge set, by enumeration."""
    requirements = pair_requirements(graph, alpha)
    chosen = _minimum_feasible(graph, requirements, budget)
    return Solution(edges=EdgeSet(chosen, graph.m), algorithm="oracle",
                    alpha=alpha, objective=len(chosen), mcps_star=None)


def brute_force_med(graph: DirectedGraph, budget: int = DEFAULT_EDGE_BUDGET) -> EdgeSet:
    """Minimum edge set preserving the reachability relation, by enumeration."""
    requirements = pair_requirements(graph, None)
    chosen = _minimum_feasible(graph, requirements, budget)
    return EdgeSet(chosen, graph.m)

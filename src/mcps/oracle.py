"""Exponential-time ground-truth solvers for validating the fast paths.

Everything here is deliberately naive so it can be audited by eye; the only
optimization is mandatory-edge pruning (an edge that is the unique simple
path between its endpoints belongs to every feasible solution), decided by
the package's one max-flow kernel. Budgets are hard errors, never silent
truncation. The path-system search below is not used by the solvers: tests
keep it as an independent reference for the flow values.
"""

from __future__ import annotations

from itertools import combinations

from .errors import BudgetExceededError
from .flow import RetentionRatio, feasible, max_flow_value, pair_requirements
from .graphs import DirectedGraph, EdgeSet
from .solution import Solution

DEFAULT_EDGE_BUDGET = 16
DEFAULT_STEP_BUDGET = 5_000_000


def _simple_paths_in(graph: DirectedGraph, s: int, t: int, allowed: frozenset[int],
                     counter: list[int]):
    """All simple s-t paths using only `allowed` edges, as edge-index tuples."""
    path_vertices = [s]
    on_path = {s}
    path_edges: list[int] = []
    iters = [iter(graph.out_edges(s))]
    while iters:
        counter[0] -= 1
        if counter[0] < 0:
            raise BudgetExceededError("path-system search budget exceeded")
        try:
            eid, head = next(iters[-1])
        except StopIteration:
            iters.pop()
            if path_edges:
                path_edges.pop()
                on_path.discard(path_vertices.pop())
            continue
        if eid not in allowed:
            continue
        if head == t:
            yield tuple(path_edges) + (eid,)
            continue
        if head in on_path:
            continue
        path_vertices.append(head)
        on_path.add(head)
        path_edges.append(eid)
        iters.append(iter(graph.out_edges(head)))


def edge_disjoint_paths_count(graph: DirectedGraph, s: int, t: int,
                              budget: int = DEFAULT_STEP_BUDGET) -> int:
    """Maximum number of pairwise edge-disjoint s-t paths, by exhaustive
    search over path systems (remove a path's edges, recurse, take the max)."""
    if s == t:
        return 0
    counter = [budget]

    def best(allowed: frozenset[int]) -> int:
        top = 0
        for path in _simple_paths_in(graph, s, t, allowed, counter):
            top = max(top, 1 + best(allowed - set(path)))
        return top

    return best(frozenset(range(graph.m)))


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
    requirements = pair_requirements(graph, None, med=True)
    chosen = _minimum_feasible(graph, requirements, budget)
    return EdgeSet(chosen, graph.m)

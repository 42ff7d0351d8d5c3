"""The exact solvers: the decomposition-tree algorithm for two-terminal
series-parallel graphs, its block-by-block extension to laminar
series-parallel graphs, the derived MED/MSCS/Hamiltonian solvers, and one
dispatching entry point that re-validates every answer.
"""

from __future__ import annotations

from typing import Optional

from . import oracle
from .errors import McpsError, NotDspError, NotLspError
from .flow import RetentionRatio, check_all_pairs
from .graphs import DirectedGraph, EdgeSet, induced_on_edges
from .lsp import DEFAULT_PATH_BUDGET, eas_family, is_lsp, meas_partition
from .solution import Solution
from .spdecomp import LEAF, PARALLEL, recognize_dsp


def solve_dsp(graph: DirectedGraph, alpha: RetentionRatio) -> Solution:
    """Optimal solution on a two-terminal series-parallel digraph.

    Start from the full edge set, walk the decomposition tree bottom-up and,
    at each P node whose first child is the leaf of its terminal edge, drop
    that edge whenever the other children already provide the required
    capacity. Tree-local capacities are sound because at a P node with a
    terminal-edge child, the node's subgraph is exactly the path-induced
    subgraph of its terminals.

    Raises NotDspError (carrying the witness) on non-DSP input.
    """
    tree = recognize_dsp(graph)
    nodes = tree.nodes
    selected = set(range(graph.m))
    cap_cur = [0] * len(nodes)
    for i in tree.postorder:
        nd = nodes[i]
        if nd.kind == LEAF:
            cap_cur[i] = 1
        elif nd.kind == PARALLEL:
            first, *rest = nd.children
            cap = sum([cap_cur[c] for c in rest])
            if nodes[first].kind == LEAF and cap >= alpha.required(tree.cap_full[i]):
                selected.discard(nodes[first].edge)
            else:
                cap += cap_cur[first]
            cap_cur[i] = cap
        else:
            a, b = nd.children
            cap_cur[i] = min(cap_cur[a], cap_cur[b])
    med_size = _med_size_from_tree(tree)
    return Solution(edges=EdgeSet(selected, graph.m), algorithm="dsp", alpha=alpha,
                    objective=len(selected), mcps_star=len(selected) - med_size)


def _med_size_from_tree(tree) -> int:
    # An edge of a DSP has an alternative path between its endpoints exactly
    # when its leaf is the terminal-edge child of a P node.
    count = 0
    for edge in range(tree.graph.m):
        leaf = tree.leaf_of_edge[edge]
        parent = tree.parent[leaf]
        if parent == -1 or tree.nodes[parent].kind != PARALLEL:
            count += 1
    return count


def solve_lsp(graph: DirectedGraph, alpha: RetentionRatio,
              budget: int = DEFAULT_PATH_BUDGET) -> Solution:
    """Optimal solution on a laminar series-parallel graph.

    By P1 each maximal edge EAS set is a DSP whose terminals are the
    endpoints of an edge, and by P2 these sets partition the edge set
    (`meas_partition`). Every pair's path-induced subgraph lies inside one
    block, so the blocks are independent: the optimum is the union of the
    DSP optima of the blocks, and the MED size is the sum of theirs.

    Raises NotLspError (carrying the verdict) on non-LSP input.
    """
    chosen: set[int] = set()
    med_size = 0
    for block in meas_partition(graph, budget):
        sub, _ = induced_on_edges(graph, block)
        sol = solve_dsp(sub, alpha)
        chosen.update(sub.orig_index[e] for e in sol.edges)
        med_size += sol.objective - sol.mcps_star
    return Solution(edges=EdgeSet(chosen, graph.m), algorithm="lsp", alpha=alpha,
                    objective=len(chosen), mcps_star=len(chosen) - med_size)


def solve_med(graph: DirectedGraph, budget: int = DEFAULT_PATH_BUDGET) -> Solution:
    """Minimum equivalent digraph of a laminar series-parallel graph.

    This is the block decomposition of `solve_lsp` in the limit where every
    reachable pair must keep one path, so the requirement is
    min(capacity, 1). The DSP fold then drops every edge that has an
    alternative path, so the result is exactly the edges whose EAS set is a
    singleton, read off the EAS family without recognizing the blocks.

    Raises NotLspError (carrying the verdict) on non-LSP input.
    """
    verdict = is_lsp(graph, budget)
    if not verdict.is_lsp:
        raise NotLspError(verdict)
    chosen = [e for e, s in enumerate(eas_family(graph, budget).sets) if len(s) == 1]
    return Solution(edges=EdgeSet(chosen, graph.m), algorithm="med", alpha=None,
                    objective=len(chosen), mcps_star=0)


def _is_strongly_connected(graph: DirectedGraph) -> bool:
    if graph.n <= 1:
        return True
    return (len(graph.reachable_from(0)) == graph.n
            and len(graph.reaching(0)) == graph.n)


def _is_hamiltonian_cycle(graph: DirectedGraph, edge_set: EdgeSet) -> bool:
    if graph.n < 2 or len(edge_set) != graph.n:
        return False
    succ: dict[int, int] = {}
    for u, v in edge_set.pairs(graph):
        if u in succ:
            return False
        succ[u] = v
    if len(succ) != graph.n:
        return False
    seen = {0}
    v = succ[0]
    while v not in seen:
        seen.add(v)
        v = succ[v]
    return v == 0 and len(seen) == graph.n


def extract_mscs_or_hamiltonian(graph: DirectedGraph,
                                budget: int = DEFAULT_PATH_BUDGET) -> tuple[Solution, str]:
    """MED plus a classification: "hamiltonian-cycle" when the result is a
    single directed cycle through all vertices, "mscs" when the input is
    strongly connected, else "not-strongly-connected"."""
    sol = solve_med(graph, budget)
    if _is_strongly_connected(graph):
        if _is_hamiltonian_cycle(graph, sol.edges):
            return sol, "hamiltonian-cycle"
        return sol, "mscs"
    return sol, "not-strongly-connected"


def mcps_star_value(graph: DirectedGraph, sol: Solution,
                    oracle_budget: int = oracle.DEFAULT_EDGE_BUDGET,
                    budget: int = DEFAULT_PATH_BUDGET) -> Optional[int]:
    """objective minus the MED size, when the MED size is computable:
    via the LSP solver on LSPs, via brute force on small general graphs,
    undefined (None) otherwise."""
    if is_lsp(graph, budget).is_lsp:
        med_size = solve_med(graph, budget).objective
    elif graph.m <= oracle_budget:
        med_size = len(oracle.brute_force_med(graph, oracle_budget))
    else:
        return None
    return sol.objective - med_size


def solve(graph: DirectedGraph, alpha: RetentionRatio, mode: str = "auto",
          oracle_budget: int = oracle.DEFAULT_EDGE_BUDGET,
          budget: int = DEFAULT_PATH_BUDGET) -> Solution:
    """Dispatching entry point.

    auto tries DSP recognition, then the LSP check, then falls back to the
    brute-force oracle when the instance is small enough. Every returned
    solution is re-validated with the all-pairs coverage check.
    """
    if mode not in ("auto", "dsp", "lsp", "oracle"):
        raise ValueError(f"unknown mode {mode!r}")

    def _oracle_solution() -> Solution:
        brute = oracle.brute_force_mcps(graph, alpha, oracle_budget)
        star = mcps_star_value(graph, brute, oracle_budget, budget)
        return Solution(edges=brute.edges, algorithm="oracle", alpha=alpha,
                        objective=brute.objective, mcps_star=star)

    if mode == "dsp":
        sol = solve_dsp(graph, alpha)
    elif mode == "lsp":
        sol = solve_lsp(graph, alpha, budget)
    elif mode == "oracle":
        sol = _oracle_solution()
    elif graph.m == 0:
        sol = solve_lsp(graph, alpha, budget)
    else:
        try:
            sol = solve_dsp(graph, alpha)
        except NotDspError:
            if is_lsp(graph, budget).is_lsp:
                sol = solve_lsp(graph, alpha, budget)
            elif graph.m <= oracle_budget:
                sol = _oracle_solution()
            else:
                raise McpsError(
                    f"instance too large for the oracle ({graph.m} > {oracle_budget} edges) "
                    "and not a laminar series-parallel graph") from None
    report = check_all_pairs(graph, sol.edges, alpha)
    if not report.feasible:
        raise McpsError(
            f"internal error: solver {sol.algorithm!r} produced an infeasible solution "
            f"(first violation {report.first_violation})")
    return sol

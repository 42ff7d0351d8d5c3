"""The exact solvers: the decomposition-tree algorithm for two-terminal
series-parallel graphs, its block-by-block extension to laminar
series-parallel graphs, the derived MED/MSCS/Hamiltonian solvers, and one
dispatching entry point that re-validates every answer.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from . import oracle
from .errors import McpsError, NotDspError
from .flow import RetentionRatio, check_all_pairs
from .graphs import DirectedGraph, EdgeSet
from .lsp import _core, _iter_bits, _meas_blocks, is_lsp
from .solution import Solution
from .spdecomp import NodeStore, _contract, _dsp_root, _fold, _vertex_lists, recognize_dsp


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
    _, kept, med_size = _fold(tree.nodes, (tree.root,), alpha)
    return Solution(edges=EdgeSet(kept, graph.m), algorithm="dsp", alpha=alpha,
                    mcps_star=len(kept) - med_size)


def solve_lsp(graph: DirectedGraph, alpha: RetentionRatio) -> Solution:
    """Optimal solution on a laminar series-parallel graph.

    By P1 each maximal edge EAS set is a DSP whose terminals are the
    endpoints of its defining edge, the one edge whose EAS set is the whole
    block, and by P2 these sets partition the edge set (the MEAS blocks of
    `meas_partition`). Every pair's path-induced subgraph lies inside one
    block, so the blocks are independent: the optimum is the union of the
    DSP optima of the blocks, and the MED size is the sum of theirs.

    All blocks are solved in one node store, a copy of the shared one
    (`_core`, left unmutated), whose routes each lie in one block; a route
    holding whole blocks is left as it is. A block of two or more routes is
    a core-route mask from the P2 scan, and its routes are contracted
    further, down to the route of the defining edge (u, v), whose P node
    gains them after the defining edge's leaf as a reduction of the block
    alone would, up to how S nodes nest. One `_fold` over the routes left
    then decides every block, as the fold's S min is associative.

    Raises NotLspError (carrying the verdict) on non-LSP input.
    """
    blocks = _meas_blocks(graph)
    base, routes, core, _ = _core(graph)
    nodes = NodeStore._make(col[:] for col in base)
    lists = _vertex_lists(core)  # one set for every block
    roots = [i for _, _, i in routes]  # each route's tree, or its block's once contracted
    for defining, mask in blocks:
        block_routes = list(_iter_bits(mask))
        left = _contract(nodes, {routes[r][:2]: roots[r] for r in block_routes}, lists)
        root = _dsp_root(left, *graph.edges[defining])
        assert root is not None, f"LSP block of edge {defining} is not a DSP on its endpoints"
        for r in block_routes:
            roots[r] = root
    _, kept, med_size = _fold(nodes, set(roots), alpha)
    return Solution(edges=EdgeSet(kept, graph.m), algorithm="lsp", alpha=alpha,
                    mcps_star=len(kept) - med_size)


def solve_med(graph: DirectedGraph) -> Solution:
    """Minimum equivalent digraph of a laminar series-parallel graph.

    MED is MCPS where every pair with a path keeps one: no capacity exceeds
    m, so it is `solve_lsp` at alpha = 1/(m+2). The fold then drops every
    terminal-edge leaf and keeps exactly the singleton-EAS edges.

    Raises NotLspError (carrying the verdict) on non-LSP input.
    """
    return replace(solve_lsp(graph, RetentionRatio(1, graph.m + 2)), algorithm="med", alpha=None)


def _is_strongly_connected(graph: DirectedGraph) -> bool:
    if graph.n <= 1:
        return True
    return (len(graph.reachable_from(0)) == graph.n
            and len(graph.reaching(0)) == graph.n)


def extract_mscs_or_hamiltonian(graph: DirectedGraph) -> tuple[Solution, str]:
    """MED plus a classification: "hamiltonian-cycle" when the result is a
    single directed cycle through all vertices, "mscs" when the input is
    strongly connected, else "not-strongly-connected"."""
    sol = solve_med(graph)
    if _is_strongly_connected(graph):
        # the MED keeps the graph strongly connected, so with n >= 2 every
        # vertex keeps an edge in and out; n edges leave exactly one of
        # each, which on a strongly connected graph is a Hamiltonian cycle
        if graph.n >= 2 and sol.objective == graph.n:
            return sol, "hamiltonian-cycle"
        return sol, "mscs"
    return sol, "not-strongly-connected"


def mcps_star_value(graph: DirectedGraph, sol: Solution,
                    oracle_budget: int = oracle.DEFAULT_EDGE_BUDGET) -> Optional[int]:
    """objective minus the MED size, when the MED size is computable:
    via the LSP solver on LSPs, via brute force on small general graphs,
    undefined (None) otherwise."""
    if is_lsp(graph).is_lsp:
        med_size = solve_med(graph).objective
    elif graph.m <= oracle_budget:
        med_size = len(oracle.brute_force_med(graph, oracle_budget))
    else:
        return None
    return sol.objective - med_size


def solve(graph: DirectedGraph, alpha: RetentionRatio, mode: str = "auto",
          oracle_budget: int = oracle.DEFAULT_EDGE_BUDGET) -> Solution:
    """Dispatching entry point.

    auto tries DSP recognition, then the LSP check, then falls back to the
    brute-force oracle when the instance is small enough. Every returned
    solution is re-validated with the all-pairs coverage check.
    """
    if mode not in ("auto", "dsp", "lsp", "oracle"):
        raise ValueError(f"unknown mode {mode!r}")

    def _oracle_solution() -> Solution:
        brute = oracle.brute_force_mcps(graph, alpha, oracle_budget)
        return replace(brute, mcps_star=mcps_star_value(graph, brute, oracle_budget))

    if mode == "dsp":
        sol = solve_dsp(graph, alpha)
    elif mode == "lsp":
        sol = solve_lsp(graph, alpha)
    elif mode == "oracle":
        sol = _oracle_solution()
    else:
        try:
            sol = solve_dsp(graph, alpha)
        except NotDspError:
            if is_lsp(graph).is_lsp:
                sol = solve_lsp(graph, alpha)
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

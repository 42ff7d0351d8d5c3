"""Differential tests of the decomposition-tree solvers against the
mu-ordered greedy that solve_lsp replaced, kept here as a flow-based
reference that shares no code with the tree."""

from mcps import eas_family, max_flow_value, solve_dsp, solve_lsp, solve_med
from mcps.generators import gen_random_dsp, gen_random_lsp

from test_acceptance import ALPHAS, _lsp_suite


def _reference_greedy_by_mu(graph, requirement):
    """Scan edges by non-descending mu (ties by edge index) and add an edge
    iff the current selection does not yet cover its endpoint pair, with
    coverage evaluated on the selection restricted to the edge's
    path-induced set. Returns (chosen edges, MED size)."""
    fam = eas_family(graph)
    lam = [max_flow_value(graph, u, v, edges=fam[e])
           for e, (u, v) in enumerate(graph.edges)]
    order = sorted(range(graph.m), key=lambda e: (len(fam[e]), e))
    chosen: set[int] = set()
    for e in order:
        u, v = graph.edges[e]
        need = requirement(lam[e])
        if need == 0:
            continue
        have = max_flow_value(graph, u, v, edges=chosen & fam[e], limit=need)
        if have < need:
            chosen.add(e)
    med_size = sum(1 for s in fam if len(s) == 1)
    return chosen, med_size


def _has_bipartite_block(g):
    # two tails sharing two heads: a K(2,2) inside a naturally oriented
    # bipartite block; series-parallel blocks never contain one
    succ = [{v for _, v in g.out_edges(u)} for u in range(g.n)]
    return any(len(succ[a] & succ[b]) >= 2
               for a in range(g.n) for b in range(a + 1, g.n))


def _suite():
    graphs = _lsp_suite(100, 14)
    graphs += [gen_random_lsp(seed, blocks=3, block_edges=(4, 10),
                              cyclic_prob=0.4, bipartite_prob=0.4)
               for seed in range(20)]
    return graphs


def test_solve_lsp_and_solve_med_match_reference_greedy():
    graphs = _suite()
    assert sum(1 for g in graphs if not g.is_acyclic()) >= 10
    assert sum(1 for g in graphs if _has_bipartite_block(g)) >= 10
    for g in graphs:
        for alpha in ALPHAS:
            chosen, med_size = _reference_greedy_by_mu(g, alpha.required)
            sol = solve_lsp(g, alpha)
            assert sol.edges.indices == frozenset(chosen), (g.meta, str(alpha))
            assert sol.mcps_star == len(chosen) - med_size, (g.meta, str(alpha))
        chosen, med_size = _reference_greedy_by_mu(g, lambda lam: min(lam, 1))
        med = solve_med(g)
        assert med.edges.indices == frozenset(chosen), g.meta
        assert med.objective == med_size and med.mcps_star == 0, g.meta


def test_solve_dsp_matches_reference_greedy():
    for seed in range(150):
        for m in (6, 15, 40, 90):
            g = gen_random_dsp(seed, m)
            for alpha in ALPHAS:
                chosen, med_size = _reference_greedy_by_mu(g, alpha.required)
                sol = solve_dsp(g, alpha)
                assert sol.edges.indices == frozenset(chosen), (seed, m, str(alpha))
                assert sol.mcps_star == len(chosen) - med_size, (seed, m, str(alpha))

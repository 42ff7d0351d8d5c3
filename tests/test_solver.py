from fractions import Fraction

import pytest
from hypothesis import example, given, settings

from mcps import (CoverageReport, DirectedGraph, EdgeSet, LspVerdict, McpsError, NotDspError,
                  NotLspError, RetentionRatio, check_all_pairs, extract_mscs_or_hamiltonian,
                  mcps_star_value, solve, solve_dsp, solve_lsp, solve_med)
from mcps import eas_family, is_lsp, oracle, solver
from mcps.lsp import _core
from mcps.solution import Solution
from mcps.generators import (example_reduction_artifact, fixtures, brute_force_set_cover,
                             gen_random_dsp, gen_random_lsp, sc_to_mcps_solution)

from path_reference import enumerate_simple_path_edges, med_reference, solve_lsp_reference
from strategies import dsp_graphs, lsp_graphs

HALF = RetentionRatio(1, 2)
ALPHAS = [RetentionRatio(1, 3), HALF, RetentionRatio(2, 3), RetentionRatio(3, 4)]
DAG3 = DirectedGraph(3, [(0, 1), (1, 2), (0, 2)])


def test_solve_dsp_triangle_chord():
    tc = fixtures()["triangle_chord"]
    sol = solve_dsp(tc, HALF)
    assert sol.edges.pairs(tc) == [(0, 1), (1, 2)]
    assert sol.objective == 2 == oracle.brute_force_mcps(tc, HALF).objective
    sol34 = solve_dsp(tc, RetentionRatio(3, 4))
    assert sol34.objective == 3 == oracle.brute_force_mcps(tc, RetentionRatio(3, 4)).objective


def test_solve_dsp_single_edge():
    g = DirectedGraph(2, [(0, 1)])
    for alpha in ALPHAS:
        assert solve_dsp(g, alpha).edges.sorted() == [0]


def test_solve_dsp_rejects_non_dsp():
    with pytest.raises(NotDspError):
        solve_dsp(fixtures()["W"], HALF)


def test_solve_lsp_cycle_keeps_everything():
    c5 = fixtures()["C5"]
    for alpha in ALPHAS:
        assert solve_lsp(c5, alpha).edges == EdgeSet.full(c5)


def test_solve_lsp_k33_keeps_everything():
    k33 = fixtures()["K33"]
    sol = solve_lsp(k33, RetentionRatio(1, 3))
    assert sol.objective == 9
    assert sol.objective == oracle.brute_force_mcps(k33, RetentionRatio(1, 3)).objective


def test_solve_lsp_rejects_non_lsp():
    with pytest.raises(NotLspError):
        solve_lsp(fixtures()["w_plus"], HALF)


@settings(max_examples=50, deadline=None)
@given(dsp_graphs(max_edges=12))
def test_lsp_algorithm_equals_dsp_algorithm_on_dsps(g):
    for alpha in (RetentionRatio(1, 3), HALF, RetentionRatio(3, 4)):
        assert solve_lsp(g, alpha).edges == solve_dsp(g, alpha).edges


@settings(max_examples=25, deadline=None)
@given(lsp_graphs(max_blocks=2, block_hi=5))
def test_solution_size_monotone_in_alpha(g):
    sizes = [solve_lsp(g, alpha).objective for alpha in ALPHAS]
    assert sizes == sorted(sizes)


def _assert_solve_lsp_matches_the_reference(g):
    for alpha in ALPHAS:
        want = solve_lsp_reference(DirectedGraph(g.n, g.edges), alpha)
        got = solve_lsp(g, alpha)
        assert (got.edges, got.mcps_star) == (want.edges, want.mcps_star), alpha


@settings(max_examples=80, deadline=None)
@given(lsp_graphs(max_blocks=5, block_hi=10))
@example(gen_random_lsp(3, blocks=4, block_edges=(4, 10), cyclic_prob=0, bipartite_prob=0.5))
@example(gen_random_lsp(3, blocks=4, block_edges=(4, 10), cyclic_prob=1, bipartite_prob=0))
def test_solve_lsp_matches_the_block_by_block_reference(g):
    # one contraction per multi-route block in a copy of the shared store,
    # then one fold, against a reduction and a fold per MEAS block
    _assert_solve_lsp_matches_the_reference(g)


LARGER_LSPS = [gen_random_lsp(seed, blocks=30, block_edges=(8, 24), cyclic_prob=cyclic,
                              bipartite_prob=0.2)
               for seed, cyclic in ((202, 0), (7, 0), (11, 0.3))]


@pytest.mark.parametrize("g", LARGER_LSPS, ids=["dag-202", "dag-7", "cyclic-11"])
def test_solve_lsp_leaves_the_shared_store_and_eas_family_as_they_were(g):
    g = DirectedGraph(g.n, g.edges)
    assert is_lsp(g).is_lsp
    family = eas_family(g)
    store = [list(col) for col in _core(g)[0]]
    _assert_solve_lsp_matches_the_reference(g)
    assert eas_family(g) == family
    assert [list(col) for col in _core(g)[0]] == store


def test_solve_med_examples():
    assert solve_med(DAG3).edges.pairs(DAG3) == [(0, 1), (1, 2)]
    c4 = fixtures()["C4"]
    assert solve_med(c4).edges == EdgeSet.full(c4)
    with pytest.raises(NotLspError):
        solve_med(fixtures()["w_plus"])


def test_solve_med_classic_dag_rule():
    # MED of a DAG keeps exactly the edges with no alternative path
    g = DirectedGraph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
    med = solve_med(g).edges
    expected = {i for i in range(g.m)
                if enumerate_simple_path_edges(g, *g.edges[i]) == {i}}
    assert med.indices == frozenset(expected)


@settings(max_examples=25, deadline=None)
@given(lsp_graphs(max_blocks=2, block_hi=5))
def test_solve_med_matches_brute_force(g):
    if g.m > 13:
        return
    assert solve_med(g).objective == len(oracle.brute_force_med(g))


@pytest.mark.parametrize("name", sorted(fixtures()))
def test_solve_med_matches_the_singleton_eas_reference_on_every_fixture(name):
    # the fold at 1/(m+2) keeps exactly the edges whose EAS set is a
    # singleton, and both refuse a non-LSP; each call gets a fresh graph
    g = fixtures()[name]
    if not is_lsp(g).is_lsp:
        for med in (solve_med, med_reference):
            with pytest.raises(NotLspError):
                med(DirectedGraph(g.n, g.edges))
        return
    assert solve_med(DirectedGraph(g.n, g.edges)) == med_reference(DirectedGraph(g.n, g.edges))


@settings(max_examples=80, deadline=None)
@given(lsp_graphs(max_blocks=5, block_hi=10))
@example(gen_random_lsp(3, blocks=4, block_edges=(4, 10), cyclic_prob=0, bipartite_prob=0.5))
@example(gen_random_lsp(3, blocks=4, block_edges=(4, 10), cyclic_prob=1, bipartite_prob=0))
def test_solve_med_matches_the_singleton_eas_reference(g):
    assert solve_med(DirectedGraph(g.n, g.edges)) == med_reference(DirectedGraph(g.n, g.edges))


def test_extract_mscs_or_hamiltonian():
    sol, kind = extract_mscs_or_hamiltonian(fixtures()["C5"])
    assert kind == "hamiltonian-cycle" and sol.objective == 5
    sol, kind = extract_mscs_or_hamiltonian(DAG3)
    assert kind == "not-strongly-connected"
    assert sol.edges.pairs(DAG3) == [(0, 1), (1, 2)]
    sol, kind = extract_mscs_or_hamiltonian(fixtures()["cyclic_diamond"])
    assert kind == "mscs" and sol.objective == 4
    sol, kind = extract_mscs_or_hamiltonian(fixtures()["diamond_ring"])
    assert kind == "mscs"
    assert sol.objective == len(oracle.brute_force_med(fixtures()["diamond_ring"]))


def _hamiltonian_by_successor_walk(g, edge_set):
    """Whether the edges form one directed cycle through every vertex: each
    vertex has exactly one successor and the walk from 0 returns to 0 after
    visiting all n vertices."""
    succ = {}
    for u, v in edge_set.pairs(g):
        if u in succ:
            return False
        succ[u] = v
    if g.n < 2 or len(succ) != g.n:
        return False
    walk, v = [0], succ[0]
    while v != 0 and len(walk) <= g.n:
        walk.append(v)
        v = succ[v]
    return v == 0 and len(walk) == g.n


def test_extract_mscs_or_hamiltonian_matches_a_successor_walk():
    graphs = [(name, g) for name, g in sorted(fixtures().items())]
    graphs += [(f"lsp {seed}", gen_random_lsp(seed)) for seed in range(50)]
    graphs += [(f"cyclic block {seed}", gen_random_lsp(seed, blocks=1, cyclic_prob=1.0,
                                                       bipartite_prob=0.0))
               for seed in range(50)]
    kinds = set()
    for name, g in graphs:
        if not solver.is_lsp(g).is_lsp:
            with pytest.raises(NotLspError):
                extract_mscs_or_hamiltonian(g)
            continue
        sol, kind = extract_mscs_or_hamiltonian(g)
        strong = g.n <= 1 or (len(g.reachable_from(0)) == g.n == len(g.reaching(0)))
        if not strong:
            expected = "not-strongly-connected"
        elif _hamiltonian_by_successor_walk(g, sol.edges):
            expected = "hamiltonian-cycle"
        else:
            expected = "mscs"
        assert kind == expected, name
        kinds.add(kind)
    assert kinds == {"not-strongly-connected", "hamiltonian-cycle", "mscs"}


def test_mcps_star_values():
    art = example_reduction_artifact()
    cover = brute_force_set_cover(art.instance)
    sol_edges = sc_to_mcps_solution(art, cover)
    from mcps.solution import Solution
    sol = Solution(edges=sol_edges, algorithm="oracle", alpha=art.alpha, mcps_star=None)
    # the reduction graph is not an LSP (shortcut-edge path sets properly
    # overlap across items), so its MED size comes from brute force; the
    # 34 mandatory unique-path edges make that enumeration cheap
    assert mcps_star_value(art.graph, sol, oracle_budget=art.graph.m) == 2

    med_sol = solve_med(DAG3)
    assert mcps_star_value(DAG3, med_sol) == 0
    full = Solution(edges=EdgeSet.full(DAG3), algorithm="oracle", alpha=HALF, mcps_star=None)
    assert mcps_star_value(DAG3, full) == 1


def test_mcps_star_undefined_when_uncomputable():
    from mcps.solution import Solution
    big_non_lsp = fixtures()["w_plus"]
    sol = Solution(edges=EdgeSet.full(big_non_lsp), algorithm="oracle",
                   alpha=HALF, mcps_star=None)
    assert mcps_star_value(big_non_lsp, sol, oracle_budget=3) is None


def test_solve_dispatch():
    w = fixtures()["W"]
    sol = solve(w, HALF)
    assert sol.algorithm == "oracle"
    assert sol.objective == oracle.brute_force_mcps(w, HALF).objective
    assert solve(fixtures()["diamond"], HALF).algorithm == "dsp"
    assert solve(fixtures()["cyclic_diamond"], HALF).algorithm == "lsp"
    assert solve(fixtures()["diamond_ring"], HALF).algorithm == "lsp"


def test_solve_explicit_modes_enforce_preconditions():
    with pytest.raises(NotDspError):
        solve(fixtures()["W"], HALF, mode="dsp")
    with pytest.raises(NotLspError):
        solve(fixtures()["W"], HALF, mode="lsp")
    with pytest.raises(ValueError):
        solve(DAG3, HALF, mode="bogus")


def test_solve_too_large_without_structure():
    g = fixtures()["w_plus"]
    with pytest.raises(McpsError):
        solve(g, HALF, oracle_budget=3)


def test_solve_outputs_are_feasible_and_self_checked():
    for name in ("diamond", "C4", "block_chain", "diamond_ring", "W"):
        g = fixtures()[name]
        sol = solve(g, HALF)
        assert check_all_pairs(g, sol.edges, HALF).feasible
        assert sol.objective == len(sol.edges)


@settings(max_examples=20, deadline=None)
@given(dsp_graphs(max_edges=10))
@example(gen_random_dsp(187, 10))  # 19 edges: subdivided parallel leaves overshoot the target
def test_feasible_to_optimal_ratio_bound(g):
    # any feasible solution is within m/(n-1) of the optimum on connected
    # instances, because every feasible solution contains an equivalent
    # digraph of at least n-1 edges
    und = {frozenset(e) for e in g.edges}
    if len(und) < g.n - 1:
        return
    # a target of t edges can yield up to 2t - 1, past the oracle's default
    # budget; degree rows keep the enumeration fast at these sizes
    opt = oracle.brute_force_mcps(g, HALF, budget=g.m).objective
    assert Fraction(g.m, opt) <= Fraction(g.m, g.n - 1)


def test_solve_on_edgeless_graph():
    g = DirectedGraph(3, [])
    sol = solve(g, HALF)
    assert sol.objective == 0


def test_derived_fields_are_not_constructor_arguments():
    g = fixtures()["diamond"]
    sol = solve(g, HALF)
    assert sol.objective == len(sol.edges)
    with pytest.raises(TypeError):
        Solution(edges=sol.edges, algorithm="dsp", alpha=HALF, objective=1, mcps_star=0)
    with pytest.raises(TypeError):
        LspVerdict(is_lsp=True, p1_witness=None, p2_witness=None)
    with pytest.raises(TypeError):
        CoverageReport(feasible=True, first_violation=None, worst_ratio=Fraction(1))
    assert LspVerdict(None, None).is_lsp and not LspVerdict((0, 1), None).is_lsp
    assert CoverageReport(None, Fraction(1)).feasible


def test_solution_json_shape():
    tc = fixtures()["triangle_chord"]
    payload = solve(tc, HALF).to_json_dict(tc)
    assert payload == {
        "algorithm": "dsp",
        "alpha": "1/2",
        "objective": 2,
        "mcps_star": 0,
        "edges": [[0, 1], [1, 2]],
    }


def _dropping_first_edge(real):
    """A solver whose answer loses its first edge; the real solver's
    answers are minimum, so every one of their edges is needed."""
    def broken(graph, alpha, *args, **kwargs):
        sol = real(graph, alpha, *args, **kwargs)
        edges = EdgeSet(sol.edges.sorted()[1:], graph.m)
        return Solution(edges=edges, algorithm=sol.algorithm, alpha=alpha,
                        mcps_star=sol.mcps_star)
    return broken


@pytest.mark.parametrize("name, solver_name", [("diamond", "solve_dsp"),
                                                ("triangle_chord", "solve_dsp"),
                                                ("C4", "solve_lsp"),
                                                ("block_chain", "solve_lsp")])
def test_solve_certifies_every_answer(monkeypatch, name, solver_name):
    g = fixtures()[name]
    assert solve(g, HALF).algorithm == solver_name.removeprefix("solve_")
    monkeypatch.setattr(solver, solver_name, _dropping_first_edge(getattr(solver, solver_name)))
    with pytest.raises(McpsError, match="internal error"):
        solve(g, HALF)

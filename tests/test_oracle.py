import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mcps import BudgetExceededError, DirectedGraph, RetentionRatio, check_all_pairs
from mcps import oracle
from mcps.generators import fixtures

from path_reference import (edge_disjoint_paths_count, enumerate_simple_path_edges,
                            minimum_feasible_reference)
from strategies import digraphs

HALF = RetentionRatio(1, 2)
DAG3 = DirectedGraph(3, [(0, 1), (1, 2), (0, 2)])


def test_brute_force_mcps_examples():
    assert oracle.brute_force_mcps(fixtures()["triangle_chord"], HALF).objective == 2
    assert oracle.brute_force_mcps(DirectedGraph(2, [(0, 1)]), HALF).objective == 1
    # the unique 5-edge MED of the w_plus fixture is mandatory, and two extra edges
    # (one leaving u, one entering v) are needed to give the pair (u, v)
    # two disjoint paths; exhaustive enumeration settles the optimum at 7
    sol = oracle.brute_force_mcps(fixtures()["w_plus"], HALF)
    assert sol.objective == 7
    assert check_all_pairs(fixtures()["w_plus"], sol.edges, HALF).feasible


def test_brute_force_mcps_ties_break_lexicographically():
    wp = fixtures()["w_plus"]
    sol = oracle.brute_force_mcps(wp, HALF)
    med = [2, 5, 6, 7, 8]
    # first feasible 2-edge extension of the MED in combination order
    assert sol.edges.sorted() == sorted(med + [0, 3])


def test_brute_force_mcps_budget():
    g = fixtures()["reduction_example"]
    with pytest.raises(BudgetExceededError):
        oracle.brute_force_mcps(g, HALF, budget=16)


def test_budget_is_checked_before_the_requirements(monkeypatch):
    g = fixtures()["reduction_example"]

    def unreachable(*args):
        raise AssertionError("pair requirements built for an over-budget graph")

    monkeypatch.setattr(oracle, "pair_requirements", unreachable)
    message = f"brute force limited to 16 edges, graph has {g.m}"
    with pytest.raises(BudgetExceededError, match=message):
        oracle.brute_force_mcps(g, HALF, budget=16)
    with pytest.raises(BudgetExceededError, match=message):
        oracle.brute_force_med(g, budget=16)


def test_degree_filter_leaves_one_flow_check_on_w_plus(monkeypatch):
    # the w_plus optimum needs two edges beyond its mandatory MED, one out of
    # u and one into v, and the degree rows reject every 2-edge extension
    # before it that misses either; without them `feasible` ran 7 times
    calls = []
    real = oracle.feasible

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(oracle, "feasible", counting)
    assert oracle.brute_force_mcps(fixtures()["w_plus"], HALF).objective == 7
    assert len(calls) == 1


def test_one_oracle_solve_finds_the_mandatory_edges_once(monkeypatch):
    # `solve` enumerates twice on w_plus, a non-LSP: for the MCPS and for the
    # MED behind mcps_star; both start from the same m unique-path flows
    from mcps import solve
    calls = []
    real = oracle.max_flow_value

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(oracle, "max_flow_value", counting)
    w_plus = fixtures()["w_plus"]
    assert solve(w_plus, HALF, mode="oracle").mcps_star == 2
    assert len(calls) == w_plus.m


RATIOS = [RetentionRatio(1, 3), HALF, RetentionRatio(2, 3), RetentionRatio(3, 4)]


@settings(max_examples=60, deadline=None)
@given(digraphs(max_n=6, max_m=10))
@example(fixtures()["w_plus"])
@example(fixtures()["bidirected_K4"])
def test_oracle_matches_unfiltered_enumeration(g):
    for alpha in RATIOS:
        assert oracle.brute_force_mcps(g, alpha).edges == \
            minimum_feasible_reference(g, alpha), (g.edges, str(alpha))
    assert oracle.brute_force_med(g) == minimum_feasible_reference(g, None), g.edges


@settings(max_examples=100, deadline=None)
@given(digraphs(max_n=6, max_m=10), st.data())
def test_degree_rows_are_necessary(g, data):
    # the rows may reject infeasible sets, never a feasible one, and no
    # feasible set is smaller than their bound; 1/(m+2) is the MED's ratio
    alpha = data.draw(st.sampled_from(RATIOS + [RetentionRatio(1, g.m + 2)]))
    requirements = oracle.pair_requirements(g, alpha)
    rows, fewest = oracle._degree_rows(g, requirements)
    dropped = data.draw(st.sets(st.integers(0, max(g.m - 1, 0)), max_size=3))
    kept = [e for e in range(g.m) if e not in dropped]
    if not check_all_pairs(g, kept, alpha).feasible:
        return
    mask = sum(1 << e for e in kept)
    assert all((mask & row).bit_count() >= need for row, need in rows)
    assert len(kept) >= fewest


def test_brute_force_med_examples():
    assert oracle.brute_force_med(DAG3).pairs(DAG3) == [(0, 1), (1, 2)]
    c4 = fixtures()["C4"]
    assert oracle.brute_force_med(c4).sorted() == [0, 1, 2, 3]
    # strongly connected non-LSP: bidirected triangle reduces to one 3-cycle
    k3 = DirectedGraph(3, [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)])
    med = oracle.brute_force_med(k3)
    assert med.pairs(k3) == [(0, 1), (1, 2), (2, 0)]


def test_brute_force_med_is_subset_minimal():
    for name in ("C4", "diamond", "diamond_ring"):
        g = fixtures()[name]
        med = set(oracle.brute_force_med(g).sorted())
        full_reach = [(s, t) for s in range(g.n) for t in range(g.n)
                      if s != t and t in g.reachable_from(s)]
        for drop in med:
            smaller = DirectedGraph(g.n, [g.edges[i] for i in sorted(med - {drop})])
            broken = any(t not in smaller.reachable_from(s) for s, t in full_reach)
            assert broken


def test_mcps_minimality_against_random_smaller_subsets():
    g = fixtures()["diamond_ring"]
    sol = oracle.brute_force_mcps(g, HALF)
    rng = random.Random(0)
    all_edges = list(range(g.m))
    for _ in range(60):
        smaller = rng.sample(all_edges, sol.objective - 1)
        assert not check_all_pairs(g, smaller, HALF).feasible


def test_enumerate_simple_path_edges():
    c4 = fixtures()["C4"]
    assert enumerate_simple_path_edges(c4, 0, 2) == {0, 1}
    assert enumerate_simple_path_edges(fixtures()["W"], 0, 3) == set(range(5))
    assert enumerate_simple_path_edges(DAG3, 0, 2) == {0, 1, 2}
    with pytest.raises(ValueError):
        enumerate_simple_path_edges(DAG3, 1, 1)
    with pytest.raises(BudgetExceededError):
        enumerate_simple_path_edges(fixtures()["bidirected_K4"], 0, 1, budget=2)


def test_edge_disjoint_paths_count():
    assert edge_disjoint_paths_count(fixtures()["W"], 0, 3) == 2
    assert edge_disjoint_paths_count(DirectedGraph(2, [(0, 1)]), 0, 1) == 1
    assert edge_disjoint_paths_count(DirectedGraph(2, [(0, 1)]), 1, 0) == 0
    assert edge_disjoint_paths_count(fixtures()["w_plus"], 0, 3) == 3


@settings(max_examples=100, deadline=None)
@given(digraphs(max_n=6, max_m=12))
@example(fixtures()["w_plus"])
@example(fixtures()["bidirected_K4"])
def test_mandatory_edges_match_their_definition(g):
    # an edge is mandatory iff the union of all simple paths between its
    # endpoints is that edge alone
    expected = [e for e, (u, v) in enumerate(g.edges)
                if enumerate_simple_path_edges(g, u, v) == {e}]
    assert oracle._mandatory_edges(g) == expected

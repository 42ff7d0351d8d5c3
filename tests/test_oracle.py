import random

import pytest
from hypothesis import example, given, settings

from mcps import BudgetExceededError, DirectedGraph, RetentionRatio, check_all_pairs
from mcps import oracle
from mcps.generators import fixtures

from path_reference import edge_disjoint_paths_count, enumerate_simple_path_edges
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
            smaller = g.spanning_subgraph(sorted(med - {drop}))
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

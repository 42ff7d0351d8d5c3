from fractions import Fraction

import pytest
from hypothesis import given, settings

from mcps import (DirectedGraph, EdgeSet, RetentionRatio, check_all_pairs,
                  is_covered, max_flow_value)
from mcps.generators import fixtures

from strategies import digraphs

W_PLUS_MED = [2, 5, 6, 7, 8]  # s->t plus the two added two-edge paths


def test_ratio_validation():
    assert RetentionRatio(2, 4) == RetentionRatio(1, 2)
    assert str(RetentionRatio(6, 9)) == "2/3"
    for p, q in [(0, 1), (1, 1), (3, 2), (-1, 2), (1, 0)]:
        with pytest.raises(ValueError):
            RetentionRatio(p, q)


def test_ratio_parse():
    assert RetentionRatio.parse("3/4") == RetentionRatio(3, 4)
    for bad in ["1", "1/2/3", "0.5", "1 / 2", "2/2"]:
        with pytest.raises(ValueError):
            RetentionRatio.parse(bad)


def test_required_capacity_examples():
    assert RetentionRatio(1, 2).required(7) == 4
    assert RetentionRatio(1, 2).required(0) == 0
    assert RetentionRatio(2, 3).required(3) == 2


@pytest.mark.parametrize("lam", range(0, 30))
@pytest.mark.parametrize("p,q", [(1, 3), (1, 2), (2, 3), (3, 4), (7, 8)])
def test_required_capacity_bounds(p, q, lam):
    need = RetentionRatio(p, q).required(lam)
    assert need <= lam
    if lam >= 1:
        assert need >= 1


def test_max_flow_fixture_values():
    fx = fixtures()
    assert max_flow_value(fx["W"], 0, 3) == 2
    assert max_flow_value(fx["w_plus"], 0, 3) == 3
    single = DirectedGraph(2, [(0, 1)])
    assert max_flow_value(single, 1, 0) == 0
    assert max_flow_value(single, 0, 0) == 0  # sentinel for s == t


def test_is_covered():
    fx = fixtures()
    wp = fx["w_plus"]
    half = RetentionRatio(1, 2)
    assert not is_covered(wp, W_PLUS_MED, 0, 3, half)  # has 1, needs 2
    assert is_covered(wp, EdgeSet.full(wp), 0, 3, half)
    w = fx["W"]
    assert is_covered(w, EdgeSet.from_pairs(w, [(0, 1), (1, 3)]), 0, 3, half)


def test_is_covered_trivial_for_s_equals_t():
    w = fixtures()["W"]
    assert is_covered(w, [], 2, 2, RetentionRatio(1, 2))


def test_check_all_pairs_wplus_med_infeasible():
    wp = fixtures()["w_plus"]
    report = check_all_pairs(wp, W_PLUS_MED, RetentionRatio(1, 2))
    assert not report.feasible
    v = report.first_violation
    assert (v.s, v.t) == (0, 3)
    assert (v.capacity, v.subgraph_capacity, v.required) == (3, 1, 2)
    assert report.worst_ratio == Fraction(1, 3)


def test_check_all_pairs_full_cycle():
    c5 = fixtures()["C5"]
    report = check_all_pairs(c5, EdgeSet.full(c5), RetentionRatio(3, 4))
    assert report.feasible and report.worst_ratio == Fraction(1)


def test_check_all_pairs_bidirected_star():
    k4 = fixtures()["bidirected_K4"]
    star = EdgeSet.from_pairs(k4, [(0, i) for i in (1, 2, 3)] + [(i, 0) for i in (1, 2, 3)])
    report = check_all_pairs(k4, star, RetentionRatio(1, 3))
    assert report.feasible
    assert report.worst_ratio == Fraction(1, 3)


def test_retention_ratio_values():
    def retention_ratio(g, edge_set):
        # the worst ratio does not depend on the alpha the check is run at
        return check_all_pairs(g, edge_set, RetentionRatio(1, 2)).worst_ratio

    fx = fixtures()
    c4 = fx["C4"]
    assert retention_ratio(c4, EdgeSet.full(c4)) == Fraction(1)
    bc4 = fx["bidirected_C4"]
    ham = EdgeSet.from_pairs(bc4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert retention_ratio(bc4, ham) == Fraction(1, 2)
    assert retention_ratio(fx["w_plus"], W_PLUS_MED) == Fraction(1, 3)


@settings(max_examples=60)
@given(digraphs(max_n=5, max_m=8))
def test_flow_monotone_under_edge_addition(g):
    missing = [(u, v) for u in range(g.n) for v in range(g.n)
               if u != v and not g.has_edge(u, v)]
    if not missing:
        return
    bigger = DirectedGraph(g.n, list(g.edges) + [missing[0]])
    for s in range(g.n):
        for t in range(g.n):
            if s != t:
                assert max_flow_value(bigger, s, t) >= max_flow_value(g, s, t)


@settings(max_examples=60)
@given(digraphs())
def test_full_edge_set_always_feasible(g):
    report = check_all_pairs(g, EdgeSet.full(g), RetentionRatio(3, 4))
    assert report.feasible


@settings(max_examples=60)
@given(digraphs(max_n=5, max_m=8))
def test_feasible_iff_worst_ratio_at_least_alpha(g):
    alpha = RetentionRatio(2, 3)
    subset = [i for i in range(g.m) if i % 2 == 0]
    report = check_all_pairs(g, subset, alpha)
    assert report.feasible == (report.worst_ratio >= alpha.as_fraction())


@settings(max_examples=40)
@given(digraphs(max_n=5, max_m=7))
def test_coverage_monotone_in_subset_and_alpha(g):
    half, third = RetentionRatio(1, 2), RetentionRatio(1, 3)
    subset = [i for i in range(g.m) if i % 2 == 0]
    superset = sorted(set(subset) | {i for i in range(g.m) if i % 3 == 0})
    for s in range(g.n):
        for t in range(g.n):
            if s == t:
                continue
            if is_covered(g, subset, s, t, half):
                assert is_covered(g, superset, s, t, half)
                assert is_covered(g, subset, s, t, third)

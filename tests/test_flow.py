import copy
import math
import pickle
from collections import deque
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mcps import (CoverageReport, DirectedGraph, EdgeSet, RetentionRatio, Violation,
                  check_all_pairs, is_covered, max_flow_value)
from mcps.flow import feasible, pair_requirements
from mcps.generators import fixtures

from path_reference import edge_disjoint_paths_count
from strategies import digraphs

W_PLUS_MED = [2, 5, 6, 7, 8]  # s->t plus the two added two-edge paths


def test_ratio_validation():
    assert RetentionRatio(2, 4) == RetentionRatio(1, 2)
    assert str(RetentionRatio(6, 9)) == "2/3"
    for p, q in [(0, 1), (1, 1), (3, 2), (-1, 2), (1, 0)]:
        with pytest.raises(ValueError):
            RetentionRatio(p, q)
    # p and q are integers, never truncated or parsed
    for p, q in [(1.9, 3), ("1", "3")]:
        with pytest.raises(TypeError):
            RetentionRatio(p, q)


def test_ratio_parse():
    assert RetentionRatio.parse("3/4") == RetentionRatio(3, 4)
    for bad in ["1", "1/2/3", "0.5", "1 / 2", "2/2", "\u0661/\u0662", "1_0/20", "+1/2", "-1/2"]:
        with pytest.raises(ValueError):
            RetentionRatio.parse(bad)


def test_required_capacity_examples():
    assert RetentionRatio(1, 2).required(7) == 4
    assert RetentionRatio(1, 2).required(0) == 0
    assert RetentionRatio(2, 3).required(3) == 2


@settings(max_examples=200)
@given(st.integers(1, 60), st.integers(2, 60), st.integers(1, 60), st.integers(1, 60),
       st.integers(0, 200))
def test_ratio_is_the_fraction_it_names(p, q, p2, q2, capacity):
    p = p % (q - 1) + 1  # 0 < p < q
    p2 = p2 % q2
    alpha, frac = RetentionRatio(p, q), Fraction(p, q)
    assert isinstance(alpha, Fraction)
    assert alpha == frac and hash(alpha) == hash(frac) and str(alpha) == str(frac)
    if p2:
        other, other_frac = RetentionRatio(p2, q2), Fraction(p2, q2)
        assert (alpha < other, alpha <= other, alpha == other) == \
            (frac < other_frac, frac <= other_frac, frac == other_frac)
        assert (alpha == other) == (hash(alpha) == hash(other) and str(alpha) == str(other))
    assert alpha.required(capacity) == math.ceil(frac * capacity)


def test_ratio_survives_pickle_and_copy():
    alpha = RetentionRatio(6, 9)
    for twin in (pickle.loads(pickle.dumps(alpha)), copy.copy(alpha), copy.deepcopy(alpha)):
        assert type(twin) is RetentionRatio and twin == alpha and twin.required(7) == 5
        assert repr(twin) == "RetentionRatio(2, 3)"


def test_pair_requirements_skip_flows_whose_bound_needs_one(monkeypatch):
    # every pair of bidirected K4 is bounded by 3, and ceil(3/3) = 1, so no
    # pair needs a flow at 1/3; at 2/3 each of the 12 pairs needs one
    import mcps.flow as flow_mod
    calls = []
    real = flow_mod.max_flow_value

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(flow_mod, "max_flow_value", counting)
    k4 = fixtures()["bidirected_K4"]
    assert pair_requirements(k4, RetentionRatio(1, 3)) == [
        (s, t, 1) for s in range(4) for t in range(4) if s != t]
    assert calls == []
    assert {need for _, _, need in pair_requirements(k4, RetentionRatio(2, 3))} == {2}
    assert len(calls) == 12


def test_pair_requirements_at_one_over_m_plus_two_need_one_per_reachable_pair(monkeypatch):
    # no capacity exceeds m, so at 1/(m+2) every pair with a path needs 1
    # (the MED requirement), and the degree bound says so with no flow
    import mcps.flow as flow_mod

    def unreachable(*args, **kwargs):
        raise AssertionError("max_flow_value called")

    monkeypatch.setattr(flow_mod, "max_flow_value", unreachable)
    dense = DirectedGraph(5, [(u, v) for u in range(5) for v in range(5) if u != v])
    for g in [*fixtures().values(), dense, DirectedGraph(3, [])]:
        assert pair_requirements(g, RetentionRatio(1, g.m + 2)) == [
            (s, t, 1) for s in range(g.n) for t in sorted(g.reachable_from(s)) if t != s]


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


def test_check_all_pairs_runs_no_bfs_from_a_source_that_reaches_nothing(monkeypatch):
    # a BFS allocates an n-entry list, so one per isolated vertex of a large
    # header would make the check quadratic in n
    import mcps.flow as flow_mod
    sources = []
    real = flow_mod._bfs

    def counting(*args):
        sources.append(args[3])
        return real(*args)

    monkeypatch.setattr(flow_mod, "_bfs", counting)
    path = DirectedGraph(50, [(0, 1), (1, 2)])
    assert check_all_pairs(path, EdgeSet.full(path), RetentionRatio(1, 2)).feasible
    assert sources == [0, 1]


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
    assert report.feasible == (report.worst_ratio >= alpha)


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


# --- the shared residual network ------------------------------------------

def _reference_max_flow(graph, s, t, edges=None, limit=None):
    """The build-per-call kernel: a fresh residual network over exactly the
    given edges for every call."""
    if s == t:
        return 0
    indices = range(graph.m) if edges is None else sorted(set(edges))
    to, cap, adj = [], [], [[] for _ in range(graph.n)]
    for i in indices:
        u, v = graph.edges[i]
        adj[u].append(len(to))
        to.append(v)
        cap.append(1)
        adj[v].append(len(to))
        to.append(u)
        cap.append(0)
    flow = 0
    while limit is None or flow < limit:
        parent_arc = [-1] * graph.n
        parent_arc[s] = -2
        queue = deque([s])
        while queue:
            v = queue.popleft()
            if v == t:
                break
            for a in adj[v]:
                if cap[a] and parent_arc[to[a]] == -1:
                    parent_arc[to[a]] = a
                    queue.append(to[a])
        if parent_arc[t] == -1:
            break
        v = t
        while v != s:
            a = parent_arc[v]
            cap[a] -= 1
            cap[a ^ 1] += 1
            v = to[a ^ 1]
        flow += 1
    return flow


def _reference_report(graph, subset, alpha):
    first, worst = None, Fraction(1)
    for s in range(graph.n):
        for t in range(graph.n):
            lam = _reference_max_flow(graph, s, t)
            if s == t or lam == 0:
                continue
            lam_sub = _reference_max_flow(graph, s, t, edges=subset)
            worst = min(worst, Fraction(lam_sub, lam))
            need = alpha.required(lam)
            if lam_sub < need and first is None:
                first = Violation(s, t, lam, lam_sub, need)
    return CoverageReport(first_violation=first, worst_ratio=worst)


@st.composite
def _graph_and_subset(draw, max_n=6, max_m=10):
    g = draw(digraphs(max_n=max_n, max_m=max_m))
    subset = draw(st.sets(st.integers(0, g.m - 1))) if g.m else set()
    return g, sorted(subset)


@settings(max_examples=80, deadline=None)
@given(_graph_and_subset(), st.one_of(st.none(), st.integers(0, 4)))
def test_max_flow_matches_build_per_call_kernel(gs, limit):
    g, subset = gs
    for s in range(g.n):
        for t in range(g.n):
            for edges in (None, subset):
                want = _reference_max_flow(g, s, t, edges=edges, limit=limit)
                assert max_flow_value(g, s, t, edges=edges, limit=limit) == want
                if s != t:
                    host = g if edges is None else DirectedGraph(
                        g.n, [g.edges[i] for i in sorted(edges)])
                    paths = edge_disjoint_paths_count(host, s, t)
                    assert want == (paths if limit is None else min(limit, paths))


@settings(max_examples=80, deadline=None)
@given(_graph_and_subset(), st.sampled_from([RetentionRatio(1, 3), RetentionRatio(1, 2),
                                             RetentionRatio(2, 3), RetentionRatio(3, 4)]))
def test_check_all_pairs_matches_pair_by_pair_reference(gs, alpha):
    g, subset = gs
    assert check_all_pairs(g, subset, alpha) == _reference_report(g, subset, alpha)
    assert check_all_pairs(g, EdgeSet(subset, g.m), alpha) == _reference_report(g, subset, alpha)


_RATIOS = [RetentionRatio(1, 3), RetentionRatio(1, 2), RetentionRatio(2, 3),
           RetentionRatio(3, 4)]


@settings(max_examples=60, deadline=None)
@given(_graph_and_subset(max_n=9, max_m=16), st.sampled_from(_RATIOS))
@example((DirectedGraph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]), [0, 2, 3]),
         RetentionRatio(1, 2))
def test_check_all_pairs_mixes_bound_one_and_flow_pairs_of_one_source(gs, alpha):
    # Under one source, targets whose capacity is bounded by 1 are read from
    # the subgraph's BFS and the others take the two-phase flow.
    g, subset = gs
    assert check_all_pairs(g, subset, alpha) == _reference_report(g, subset, alpha)


@settings(max_examples=80, deadline=None)
@given(_graph_and_subset(max_n=9, max_m=16), st.data())
def test_feasible_matches_a_per_row_reference(gs, data):
    # Rows needing 1 share one BFS per run of equal sources; rows needing 2
    # or 3 take a flow. Rows come in any order.
    g, subset = gs
    pairs = [(s, t) for s in range(g.n) for t in range(g.n) if s != t]
    rows = [(s, t, need) for (s, t), need in data.draw(st.lists(
        st.tuples(st.sampled_from(pairs), st.integers(1, 3)), max_size=12))] if pairs else []
    for row in rows:
        s, t, need = row
        want = _reference_max_flow(g, s, t, edges=subset, limit=need) >= need
        assert feasible(g, subset, [row]) == want, row
    assert feasible(g, subset, rows) == all(
        _reference_max_flow(g, s, t, edges=subset, limit=need) >= need for s, t, need in rows)
    alpha = data.draw(st.sampled_from(_RATIOS))
    assert pair_requirements(g, alpha) == [
        (s, t, alpha.required(lam)) for s, t in pairs
        if (lam := _reference_max_flow(g, s, t))]


@settings(max_examples=40, deadline=None)
@given(_graph_and_subset(), st.integers(0, 3))
def test_shared_network_keeps_no_state_between_calls(gs, limit):
    g, subset = gs
    half, third = RetentionRatio(1, 2), RetentionRatio(1, 3)
    pairs = [(s, t) for s in range(g.n) for t in range(g.n)]
    for s, t in pairs:
        assert max_flow_value(g, s, t, edges=subset, limit=limit) == \
            _reference_max_flow(g, s, t, edges=subset, limit=limit)
        assert max_flow_value(g, s, t) == _reference_max_flow(g, s, t)
    assert check_all_pairs(g, subset, half) == _reference_report(g, subset, half)
    for s, t in reversed(pairs):
        assert max_flow_value(g, s, t, limit=limit) == _reference_max_flow(g, s, t, limit=limit)
        assert max_flow_value(g, s, t, edges=subset) == _reference_max_flow(g, s, t, edges=subset)
    assert check_all_pairs(g, subset, third) == _reference_report(g, subset, third)
    rows = pair_requirements(g, half)
    assert feasible(g, subset, rows) == check_all_pairs(g, subset, half).feasible


class _CountingEdges(tuple):
    """An edge tuple that counts how many edges are read from it."""

    reads = 0

    def __iter__(self):
        type(self).reads += len(self)
        return super().__iter__()

    def __getitem__(self, i):
        type(self).reads += 1
        return super().__getitem__(i)


def test_check_all_pairs_builds_the_network_at_most_once(monkeypatch):
    g = fixtures()["bidirected_K4"]
    subset = [0, 2, 5, 7, 9]
    want = check_all_pairs(DirectedGraph(g.n, g.edges), subset, RetentionRatio(1, 2))
    monkeypatch.setattr(_CountingEdges, "reads", 0)
    g.edges = _CountingEdges(g.edges)
    assert check_all_pairs(g, subset, RetentionRatio(1, 2)) == want
    # one pass over the edges for the network, one read per subset edge
    assert _CountingEdges.reads <= g.m + len(subset)
    monkeypatch.setattr(_CountingEdges, "reads", 0)
    assert check_all_pairs(g, subset, RetentionRatio(1, 2)) == want
    assert _CountingEdges.reads <= len(subset)  # the network is cached


# --- edge indices outside the host graph ----------------------------------

PATH3 = DirectedGraph(3, [(0, 1), (1, 2)])
_HALF = RetentionRatio(1, 2)
_BAD_INDICES = {"negative": [-1], "negative-mixed": [-1, 0], "too-large": [2],
                "foreign-edge-set": EdgeSet([0, 1], 3)}
_CALLS = {
    "max_flow_value": lambda edges: max_flow_value(PATH3, 1, 2, edges=edges),
    "max_flow_value-s==t": lambda edges: max_flow_value(PATH3, 1, 1, edges=edges),
    "check_all_pairs": lambda edges: check_all_pairs(PATH3, edges, _HALF),
    "is_covered": lambda edges: is_covered(PATH3, edges, 1, 2, _HALF),
    "feasible": lambda edges: feasible(PATH3, edges, [(0, 2, 1)]),
}


@pytest.mark.parametrize("indices", list(_BAD_INDICES.values()), ids=list(_BAD_INDICES))
@pytest.mark.parametrize("call", list(_CALLS.values()), ids=list(_CALLS))
def test_flow_api_rejects_indices_outside_the_host(call, indices):
    with pytest.raises(ValueError):
        call(indices)


def test_flow_api_rejects_non_integer_edge_indices():
    # int() would truncate [0.7, 1.2] to edges {0, 1}, the path 0 -> 1 -> 2
    triangle = DirectedGraph(3, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(TypeError):
        max_flow_value(triangle, 0, 2, edges=[0.7, 1.2])
    assert max_flow_value(triangle, 0, 2, edges=[0, 1]) == 1

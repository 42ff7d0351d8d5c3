import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcps import (BudgetExceededError, DirectedGraph, NotLspError, check_p1,
                  check_p2, eas_family, find_w_subdivision, is_lsp,
                  meas_partition, path_induced, subdivide)
from mcps import oracle
from mcps.generators import fixtures, gen_random_dsp, gen_random_lsp

from strategies import digraphs, dsp_graphs, lsp_graphs

DAG3 = DirectedGraph(3, [(0, 1), (1, 2), (0, 2)])


def test_path_induced_examples():
    c4 = fixtures()["C4"]
    assert path_induced(c4, 0, 2) == {0, 1}
    w = fixtures()["W"]
    assert path_induced(w, 0, 3) == set(range(5))
    assert path_induced(DAG3, 0, 2) == {0, 1, 2}
    assert path_induced(c4, 2, 0) == {2, 3}
    assert path_induced(DirectedGraph(2, [(0, 1)]), 1, 0) == frozenset()


def test_path_induced_rejects_equal_endpoints():
    with pytest.raises(ValueError):
        path_induced(DAG3, 1, 1)


def test_path_induced_budget_is_a_hard_error():
    g = fixtures()["bidirected_K4"]
    with pytest.raises(BudgetExceededError):
        path_induced(g, 0, 3, budget=3)


def test_mu_values():
    c4 = fixtures()["C4"]
    assert all(eas_family(c4).mu(e) == 1 for e in range(4))
    assert eas_family(DAG3).mu(2) == 3
    # the terminal edge s->t of the w_plus fixture is its endpoints' only simple path
    wp = fixtures()["w_plus"]
    assert eas_family(wp).mu(2) == 1
    assert eas_family(wp).mu(2) == len(oracle.enumerate_simple_path_edges(wp, 1, 2))


@settings(max_examples=100, deadline=None)
@given(digraphs(max_n=5, max_m=9))
def test_path_induced_matches_unpruned_enumeration(g):
    for s in range(g.n):
        for t in range(g.n):
            if s != t:
                assert path_induced(g, s, t) == \
                    oracle.enumerate_simple_path_edges(g, s, t)


@settings(max_examples=60, deadline=None)
@given(digraphs(max_n=6, max_m=10, acyclic=True))
def test_dag_shortcut_matches_enumeration(g):
    # same operation, but force the enumerative route by hiding acyclicity
    for s in range(g.n):
        for t in range(g.n):
            if s != t:
                from mcps.lsp import _path_induced_enum
                assert path_induced(g, s, t) == _path_induced_enum(g, s, t, 10**6)


def test_check_p1():
    ok, witness = check_p1(fixtures()["W"])
    assert not ok and witness == (0, 3)
    assert check_p1(fixtures()["diamond"]) == (True, None)
    assert check_p1(fixtures()["C4"]) == (True, None)


def _check_p1_naive(g):
    from mcps.lsp import _is_dsp_with_terminals
    for s in range(g.n):
        for t in range(g.n):
            if s == t:
                continue
            edges = path_induced(g, s, t)
            if edges and not _is_dsp_with_terminals(g, edges, s, t):
                return False, (s, t)
    return True, None


@settings(max_examples=80, deadline=None)
@given(digraphs(max_n=6, max_m=10, acyclic=True))
def test_check_p1_dag_shortcut_agrees_with_pairwise_scan(g):
    assert check_p1(g) == _check_p1_naive(g)


def test_check_p2():
    ok, witness = check_p2(fixtures()["W"])
    assert not ok and witness == (1, 2)
    for name in ("block_chain", "diamond_ring", "K33"):
        assert check_p2(fixtures()[name]) == (True, None)


def test_is_lsp_verdicts():
    assert not is_lsp(fixtures()["W"]).is_lsp
    assert is_lsp(fixtures()["block_chain"]).is_lsp
    assert is_lsp(DAG3).is_lsp
    v = is_lsp(fixtures()["w_plus"])
    assert not v.is_lsp and v.p1_witness == (0, 3) and v.p2_witness == (1, 3)


def test_meas_partition():
    tc = fixtures()["triangle_chord"]
    assert [p.sorted() for p in meas_partition(tc)] == [[0, 1, 2]]
    c4 = fixtures()["C4"]
    assert [p.sorted() for p in meas_partition(c4)] == [[0], [1], [2], [3]]
    chain = fixtures()["block_chain"]
    parts = [p.sorted() for p in meas_partition(chain)]
    assert [6, 7, 8] in parts  # the triangle-with-chord block
    assert sorted(e for p in parts for e in p) == list(range(chain.m))


def test_meas_partition_requires_lsp():
    with pytest.raises(NotLspError) as err:
        meas_partition(fixtures()["W"])
    assert err.value.verdict.p1_witness == (0, 3)


def _meas_quadratic(g):
    """Definition of the MEAS partition: the distinct EAS sets not strictly
    contained in another one, ordered by smallest edge index."""
    distinct = set(eas_family(g).sets)
    return sorted((sorted(s) for s in distinct
                   if not any(s < other for other in distinct)), key=min)


def test_meas_partition_matches_definition_on_fixtures():
    lsp_fixtures = [g for g in fixtures().values() if is_lsp(g).is_lsp]
    assert len(lsp_fixtures) >= 10
    for g in lsp_fixtures:
        assert [p.sorted() for p in meas_partition(g)] == _meas_quadratic(g)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 4), st.sampled_from([
    (0.5, 0.0), (0.0, 0.5), (0.3, 0.3), (1.0, 0.0), (0.0, 1.0)]))
def test_meas_partition_matches_definition_on_random_lsps(seed, blocks, probs):
    cyclic_prob, bipartite_prob = probs
    g = gen_random_lsp(seed, blocks=blocks, block_edges=(2, 8),
                       cyclic_prob=cyclic_prob, bipartite_prob=bipartite_prob)
    assert [p.sorted() for p in meas_partition(g)] == _meas_quadratic(g)


@settings(max_examples=40, deadline=None)
@given(digraphs(max_n=5, max_m=8))
def test_every_edge_belongs_to_its_own_eas(g):
    fam = eas_family(g)
    for e in range(g.m):
        assert e in fam.sets[e]
        assert fam.mu(e) >= 1


@settings(max_examples=30, deadline=None)
@given(lsp_graphs())
def test_each_eas_lies_in_exactly_one_meas(g):
    parts = [set(p.sorted()) for p in meas_partition(g)]
    fam = eas_family(g)
    for e in range(g.m):
        containing = [p for p in parts if set(fam.sets[e]) <= p]
        assert len(containing) == 1


def test_subdivide():
    two_path = subdivide(DirectedGraph(2, [(0, 1)]))
    assert two_path.n == 3 and two_path.edges == ((0, 2), (2, 1))
    sw = subdivide(fixtures()["W"])
    assert sw.n == 9 and sw.m == 10
    assert check_p2(sw) == (True, None)
    st = subdivide(DirectedGraph(3, [(0, 1), (1, 2), (2, 0)]))
    assert st.n == 6 and st.m == 6
    assert all(st.in_degree(v) == 1 and st.out_degree(v) == 1 for v in range(6))
    assert len(st.reachable_from(0)) == 6


@settings(max_examples=60, deadline=None)
@given(digraphs(max_n=5, max_m=8))
def test_subdivide_always_satisfies_p2(g):
    assert check_p2(subdivide(g)) == (True, None)


def test_find_w_subdivision_fixture_values():
    w = fixtures()["W"]
    found = find_w_subdivision(w)
    assert found is not None and found.branch == (0, 1, 2, 3)
    found.validate(w)
    wp = fixtures()["w_plus"]
    found = find_w_subdivision(wp)
    assert found is not None
    found.validate(wp)
    assert find_w_subdivision(fixtures()["diamond"]) is None


@settings(max_examples=40, deadline=None)
@given(dsp_graphs(max_edges=10))
def test_dsp_has_no_w_subdivision(g):
    assert find_w_subdivision(g) is None


@settings(max_examples=100, deadline=None)
@given(digraphs(max_n=5, max_m=9))
def test_p1_iff_no_w_subdivision(g):
    ok, _ = check_p1(g)
    found = find_w_subdivision(g)
    assert ok == (found is None)
    if found is not None:
        found.validate(g)


@settings(max_examples=40, deadline=None)
@given(dsp_graphs(max_edges=12))
def test_every_dsp_is_an_lsp(g):
    assert is_lsp(g).is_lsp


def test_med_edges_have_mu_one_on_dags():
    for g in (DAG3, fixtures()["reduction_example"], fixtures()["diamond"]):
        if g.m <= 16:
            med = oracle.brute_force_med(g)
            assert all(eas_family(g).mu(e) == 1 for e in med)


def test_dag_reachability_product_rule():
    g = DirectedGraph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (1, 4)])
    for s in range(g.n):
        reach_s = g.reachable_from(s)
        for t in range(g.n):
            if s == t:
                continue
            expected = {i for i, (x, y) in enumerate(g.edges)
                        if x in reach_s and t in g.reachable_from(y)}
            assert path_induced(g, s, t) == expected


def test_gen_random_dsp_accepted_and_w_free():
    for seed in range(10):
        g = gen_random_dsp(seed, 8)
        assert check_p1(g) == (True, None)


def test_oversized_dag_falls_back_to_per_pair_products(monkeypatch):
    import mcps.lsp as lsp_mod
    monkeypatch.setattr(lsp_mod, "_MASK_LIMIT_BITS", 10)
    g = gen_random_dsp(3, 10)
    for s in range(g.n):
        for t in range(g.n):
            if s != t:
                assert lsp_mod.path_induced(g, s, t) == \
                    oracle.enumerate_simple_path_edges(g, s, t)
    assert lsp_mod.check_p1(g) == (True, None)
    with pytest.raises(BudgetExceededError):
        lsp_mod.eas_family(g)

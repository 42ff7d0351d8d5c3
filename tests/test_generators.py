import pytest

from mcps import (EdgeSet, RetentionRatio, check_all_pairs, is_lsp,
                  max_flow_value, recognize_dsp)
from mcps import generators, oracle
from mcps.generators import (SetCoverInstance,
                             brute_force_set_cover, build_reduction,
                             example_reduction_artifact, example_cover_instance, fixtures,
                             gen_random_dsp, gen_random_lsp,
                             mcps_to_sc_solution, sc_to_mcps_solution)

from path_reference import edge_disjoint_paths_count


def test_set_cover_validation_is_sized_by_the_sets_not_the_universe():
    # a range per set and the union's size decide coverage; a set of the
    # whole universe per set would take gigabytes here
    with pytest.raises(ValueError, match=r"^999999999 items appear in no set, the smallest is 1$"):
        SetCoverInstance(10**9, (frozenset({0}),))
    with pytest.raises(ValueError, match=r"^set 1 leaves the universe$"):
        SetCoverInstance(10**9, (frozenset({0}), frozenset({5, 10**9})))
    with pytest.raises(ValueError, match=r"^set 0 leaves the universe$"):
        SetCoverInstance(3, (frozenset({-1, 1}),))
    with pytest.raises(ValueError, match=r"^2 items appear in no set, the smallest is 0$"):
        SetCoverInstance(4, (frozenset({1, 3}),))


def test_set_cover_instance_validation():
    with pytest.raises(ValueError):
        SetCoverInstance(2, (frozenset(),))
    with pytest.raises(ValueError):
        SetCoverInstance(2, (frozenset({0, 5}),))
    with pytest.raises(ValueError):
        SetCoverInstance(3, (frozenset({0, 1}),))  # item 2 uncovered
    with pytest.raises(TypeError):
        SetCoverInstance(2, (frozenset({0, 0.5}), frozenset({1})))
    sc = example_cover_instance()
    assert [sc.frequency(u) for u in range(4)] == [1, 2, 3, 1]
    assert sc.max_frequency() == 3


def test_example_reduction_artifact_shape():
    art = example_reduction_artifact()
    g = art.graph
    assert g.n == 25 and g.m == 41
    assert art.alpha == RetentionRatio(1, 2)
    assert art.med_size() == 34
    for u in range(4):
        lam = max_flow_value(g, art.item_vertex[u], art.sink)
        assert lam == 2 * art.instance.frequency(u) + 1
    assert max_flow_value(g, art.item_vertex[2], art.sink) == 7


def test_reduction_is_a_shallow_dag():
    art = example_reduction_artifact()
    g = art.graph
    assert g.is_acyclic()
    # every vertex reaches the sink within four hops: path length bound
    from mcps.generators import _longest_path_length
    assert _longest_path_length(g) == 4


def test_reduction_max_capacity_for_frequency_two():
    art = build_reduction(
        SetCoverInstance(2, (frozenset({0}), frozenset({0, 1}), frozenset({1}))), p=1)
    assert art.instance.max_frequency() == 2
    g = art.graph
    caps = [max_flow_value(g, s, t)
            for s in range(g.n) for t in range(g.n) if s != t]
    assert max(caps) == 5


def test_singleton_reduction_p1():
    art = build_reduction(SetCoverInstance(1, (frozenset({0}),)), p=1)
    lam = max_flow_value(art.graph, art.item_vertex[0], art.sink)
    assert lam == 3
    assert art.alpha.required(lam) == 2
    # small enough to settle the optimum exhaustively: med + one shortcut
    assert oracle.brute_force_mcps(art.graph, art.alpha).objective == art.med_size() + 1


def test_singleton_reduction_p2():
    art = build_reduction(SetCoverInstance(1, (frozenset({0}),)), p=2)
    assert art.alpha == RetentionRatio(2, 3)
    lam = max_flow_value(art.graph, art.item_vertex[0], art.sink)
    assert lam == edge_disjoint_paths_count(art.graph, art.item_vertex[0], art.sink) == 4
    assert art.alpha.required(lam) == 3


def test_sc_to_mcps_solution():
    art = example_reduction_artifact()
    cover = brute_force_set_cover(art.instance)
    assert sorted(cover) == [0, 1]
    sol = sc_to_mcps_solution(art, cover)
    assert len(sol) == 34 + 2 == 36
    assert check_all_pairs(art.graph, sol, art.alpha).feasible
    assert len(sc_to_mcps_solution(art, range(3))) == 37
    with pytest.raises(ValueError):
        sc_to_mcps_solution(art, [2])  # misses items 0 and 3


def test_mcps_to_sc_round_trip_on_all_covers():
    art = example_reduction_artifact()
    from itertools import combinations
    universe = set(range(art.instance.universe_size))
    for k in range(1, 4):
        for combo in combinations(range(3), k):
            union = set()
            for i in combo:
                union |= art.instance.sets[i]
            if union != universe:
                continue
            back = mcps_to_sc_solution(art, sc_to_mcps_solution(art, combo))
            assert back == frozenset(combo)


def test_mcps_to_sc_replacement_of_item_shortcuts():
    art = example_reduction_artifact()
    edges = set(art.med_edges)
    edges.add(art.set_shortcut_edge[2])        # covers items 1, 2
    for u in (0, 1, 3):
        edges.add(art.item_shortcut_edge[u])   # reds for a, b, d
    edge_set = EdgeSet(edges, art.graph.m)
    assert check_all_pairs(art.graph, edge_set, art.alpha).feasible
    cover = mcps_to_sc_solution(art, edge_set)
    assert 2 in cover
    assert any(1 in art.instance.sets[i] for i in cover)
    assert len(cover) <= len(edge_set) - art.med_size()
    covered = set()
    for i in cover:
        covered |= art.instance.sets[i]
    assert covered == set(range(4))


def test_mcps_to_sc_rejects_infeasible_input():
    art = example_reduction_artifact()
    with pytest.raises(ValueError):
        mcps_to_sc_solution(art, EdgeSet(art.med_edges, art.graph.m))


def test_mcps_to_sc_on_full_edge_set():
    art = example_reduction_artifact()
    cover = mcps_to_sc_solution(art, EdgeSet.full(art.graph))
    assert len(cover) <= 3
    covered = set()
    for i in cover:
        covered |= art.instance.sets[i]
    assert covered == set(range(4))


def test_optimum_transport_on_fully_enumerable_instance():
    # both brute forces run here: SC optimum k maps to MCPS optimum med + k
    sc = SetCoverInstance(1, (frozenset({0}),))
    art = build_reduction(sc, p=1)
    k = len(brute_force_set_cover(sc))
    assert oracle.brute_force_mcps(art.graph, art.alpha).objective == art.med_size() + k


def test_gen_random_dsp_properties():
    seen = set()
    for seed in range(8):
        g = gen_random_dsp(seed, 9)
        recognize_dsp(g)
        assert g.is_acyclic()
        assert len(g.sources()) == 1 and len(g.sinks()) == 1
        seen.add(g.edges)
    assert len(seen) > 1
    assert gen_random_dsp(3, 9).edges == gen_random_dsp(3, 9).edges
    assert gen_random_dsp(3, 9).meta["seed"] == 3


def test_gen_random_lsp_properties():
    for seed in range(8):
        g = gen_random_lsp(seed, blocks=3, block_edges=(2, 6))
        assert is_lsp(g).is_lsp
    assert gen_random_lsp(5, blocks=3).edges == gen_random_lsp(5, blocks=3).edges


@pytest.mark.parametrize("block_edges", [(0, 0), (0, 3), (5, 2)])
def test_gen_random_lsp_rejects_bad_block_edges(block_edges):
    with pytest.raises(ValueError, match="block_edges"):
        gen_random_lsp(3, block_edges=block_edges)


@pytest.mark.parametrize("probs", [(2, 0.2), (-0.1, 0.2), (0.25, 1.5), (0.25, -1),
                                   (float("nan"), 0), (0.6, 0.5)])
def test_gen_random_lsp_rejects_bad_probabilities_before_any_draw(monkeypatch, probs):
    def no_rng(seed):
        raise AssertionError("random generator created before the arguments were checked")
    monkeypatch.setattr(generators.random, "Random", no_rng)
    with pytest.raises(ValueError, match="prob"):
        gen_random_lsp(3, cyclic_prob=probs[0], bipartite_prob=probs[1])


def test_gen_random_lsp_single_dsp_block_degenerates():
    g = gen_random_lsp(11, blocks=1, cyclic_prob=0.0, bipartite_prob=0.0)
    recognize_dsp(g)


def test_fixture_table():
    fx = fixtures()
    assert fx["W"].n == 4 and fx["W"].m == 5
    assert max_flow_value(fx["w_plus"], 0, 3) == 3
    assert fx["C4"].edges == ((0, 1), (1, 2), (2, 3), (3, 0))
    assert fx["reduction_example"].m == 41
    assert fx["w_plus"].labels[0] == "u"
    for name in ("block_chain", "diamond_ring", "K33"):
        assert is_lsp(fx[name]).is_lsp


def test_build_reduction_rejects_bad_p():
    with pytest.raises(ValueError):
        build_reduction(example_cover_instance(), p=0)

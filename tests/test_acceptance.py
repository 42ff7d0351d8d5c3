"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import random
import time

from mcps import (DirectedGraph, EdgeSet, RetentionRatio, check_all_pairs,
                  check_p1, check_p2, find_w_subdivision, is_covered, is_lsp,
                  max_flow_value, solve_dsp, solve_lsp, solve_med, subdivide,
                  extract_mscs_or_hamiltonian)
from mcps import oracle
from mcps.generators import (brute_force_set_cover, example_reduction_artifact, fixtures,
                             gen_random_dsp, gen_random_lsp,
                             mcps_to_sc_solution, sc_to_mcps_solution)

from path_reference import edge_disjoint_paths_count, enumerate_simple_path_edges

ALPHAS = [RetentionRatio(1, 3), RetentionRatio(1, 2),
          RetentionRatio(2, 3), RetentionRatio(3, 4)]
HALF = RetentionRatio(1, 2)

W_PLUS_MED_PAIRS = [(1, 2), (0, 4), (4, 1), (2, 5), (5, 3)]


def _random_graph(rng, max_n=6, max_m=12):
    n = rng.randint(2, max_n)
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    rng.shuffle(pairs)
    m = rng.randint(1, min(max_m, len(pairs)))
    return DirectedGraph(n, sorted(pairs[:m]))


def _dsp_suite(count=200, max_edges=12):
    graphs = []
    seed = 0
    while len(graphs) < count:
        target = (seed % (max_edges - 1)) + 2
        g = gen_random_dsp(seed, target)
        if g.m <= max_edges:
            graphs.append(g)
        seed += 1
    return graphs


def _lsp_suite(count=100, max_edges=14):
    graphs = []
    seed = 0
    while len(graphs) < count:
        rng = random.Random(seed)
        g = gen_random_lsp(seed, blocks=rng.randint(1, 3), block_edges=(2, 6),
                           cyclic_prob=0.5, bipartite_prob=0.15)
        if 1 <= g.m <= max_edges:
            graphs.append(g)
        seed += 1
    return graphs


def test_criterion_01_fixture_values():
    start = time.time()
    wp = fixtures()["w_plus"]
    assert max_flow_value(wp, 0, 3) == 3
    med = EdgeSet.from_pairs(wp, W_PLUS_MED_PAIRS)
    for u, v in wp.edges:
        assert is_covered(wp, med, u, v, HALF)
    assert not is_covered(wp, med, 0, 3, HALF)
    report = check_all_pairs(wp, med, HALF)
    assert not report.feasible
    assert (report.first_violation.s, report.first_violation.t) == (0, 3)
    elapsed = time.time() - start
    assert elapsed < 1.0
    print(f"criterion 1: PASS (capacity 3; MED covers edges, misses (u,v); {elapsed:.2f}s)")


def test_criterion_02_and_03_dsp_optimality_and_algorithm_agreement():
    start = time.time()
    graphs = _dsp_suite(200, 12)
    checked = 0
    for g in graphs:
        for alpha in ALPHAS:
            fast = solve_dsp(g, alpha)
            brute = oracle.brute_force_mcps(g, alpha)
            assert fast.objective == brute.objective, \
                (g.meta, str(alpha), fast.objective, brute.objective)
            assert check_all_pairs(g, fast.edges, alpha).feasible
            greedy = solve_lsp(g, alpha)
            assert greedy.edges == fast.edges, (g.meta, str(alpha))
            checked += 1
    elapsed = time.time() - start
    assert elapsed < 120.0
    print(f"criterion 2: PASS ({len(graphs)} DSPs x {len(ALPHAS)} alphas, "
          f"optimal and feasible; {elapsed:.1f}s)")
    print(f"criterion 3: PASS (identical edge sets on all {checked} runs)")


def test_criterion_04_lsp_optimality_including_cyclic():
    start = time.time()
    graphs = _lsp_suite(100, 14)
    cyclic = sum(1 for g in graphs if not g.is_acyclic())
    assert cyclic >= 10, "suite must include cyclic instances"
    for g in graphs:
        for alpha in ALPHAS:
            fast = solve_lsp(g, alpha)
            brute = oracle.brute_force_mcps(g, alpha)
            assert fast.objective == brute.objective, \
                (g.meta, str(alpha), fast.objective, brute.objective)
    elapsed = time.time() - start
    assert elapsed < 300.0
    print(f"criterion 4: PASS ({len(graphs)} LSPs ({cyclic} cyclic) x "
          f"{len(ALPHAS)} alphas; {elapsed:.1f}s)")


def test_criterion_05_edge_coverage_implies_pair_coverage_on_p1_graphs():
    rng = random.Random(505)
    graphs = _lsp_suite(60, 14) + _dsp_suite(60, 12)
    checked = 0
    for g in graphs:
        samples = [set(solve_lsp(g, HALF).edges.sorted()),
                   set(range(g.m))]
        for _ in range(3):
            samples.append({e for e in range(g.m) if rng.random() < 0.7})
        for chosen in samples:
            edges_ok = all(is_covered(g, chosen, u, v, HALF) for u, v in g.edges)
            pairs_ok = check_all_pairs(g, chosen, HALF).feasible
            assert edges_ok == pairs_ok, (g.meta, sorted(chosen))
            checked += 1
    # counterexample direction: when the path-induced property fails, edge
    # coverage no longer implies pair coverage
    wp = fixtures()["w_plus"]
    med = EdgeSet.from_pairs(wp, W_PLUS_MED_PAIRS)
    assert all(is_covered(wp, med, u, v, HALF) for u, v in wp.edges)
    assert not check_all_pairs(wp, med, HALF).feasible
    print(f"criterion 5: PASS ({len(graphs)} P1-graphs, {checked} edge sets, "
          "zero violations; counterexample fixture behaves as stated)")


def test_criterion_06_class_characterizations():
    rng = random.Random(606)
    graphs = [fixtures()[k] for k in ("W", "w_plus", "C4", "diamond",
                                      "triangle_chord", "cyclic_diamond",
                                      "block_chain", "diamond_ring", "K33",
                                      "bidirected_C4")]
    graphs += [_random_graph(rng) for _ in range(200)]
    for g in graphs:
        witness = find_w_subdivision(g)
        assert (check_p1(g) is None) == (witness is None), g.edges
        if witness is not None:
            witness.validate(g)
        assert check_p2(subdivide(g)) is None
    dsps = _dsp_suite(60, 12)
    for g in dsps:
        assert is_lsp(g).is_lsp
    print(f"criterion 6: PASS (forbidden-subgraph equivalence on {len(graphs)} "
          f"graphs; subdivision laminarity on all; {len(dsps)} DSPs are LSPs)")


def test_criterion_07_reduction_integrity():
    start = time.time()
    art = example_reduction_artifact()
    g = art.graph
    for u in range(art.instance.universe_size):
        lam = max_flow_value(g, art.item_vertex[u], art.sink)
        assert lam == 2 * art.instance.frequency(u) + 1
    optimum_cover = brute_force_set_cover(art.instance)
    k = len(optimum_cover)
    assert k == 2
    forward = sc_to_mcps_solution(art, optimum_cover)
    assert len(forward) == art.med_size() + k == 36
    assert check_all_pairs(g, forward, art.alpha).feasible
    # every MED edge is the unique simple path between its endpoints, so any
    # feasible solution contains all of them
    for e in sorted(art.med_edges):
        u, v = g.edges[e]
        assert enumerate_simple_path_edges(g, u, v) == {e}
    # the reverse mapping bounds any feasible solution from below by med + k
    feasible_samples = [
        forward,
        EdgeSet.full(g),
        sc_to_mcps_solution(art, [0, 1, 2]),
        EdgeSet(set(art.med_edges) | set(art.item_shortcut_edge.values()), g.m),
    ]
    for sample in feasible_samples:
        cover = mcps_to_sc_solution(art, sample)
        assert len(cover) <= len(sample) - art.med_size()
        covered = set()
        for i in cover:
            covered |= art.instance.sets[i]
        assert covered == set(range(art.instance.universe_size))
        assert len(sample) >= art.med_size() + k
    # round-trip identity on covers
    for cover in ([0, 1], [0, 2], [1, 2], [0, 1, 2]):
        union = set()
        for i in cover:
            union |= art.instance.sets[i]
        if union != set(range(4)):
            continue
        assert mcps_to_sc_solution(art, sc_to_mcps_solution(art, cover)) == frozenset(cover)
    elapsed = time.time() - start
    assert elapsed < 60.0
    print(f"criterion 7: PASS (capacities 2f+1; cover optimum {k} transports "
          f"to solution optimum {art.med_size() + k}; round trips exact; {elapsed:.1f}s)")


def test_criterion_08_med_and_derived_solvers():
    fx = fixtures()
    pool = [fx["diamond"], fx["triangle_chord"], fx["C4"], fx["cyclic_diamond"],
            fx["diamond_ring"], DirectedGraph(3, [(0, 1), (1, 2), (0, 2)])]
    pool += [g for g in _lsp_suite(40, 12)]
    pool += [gen_random_lsp(7000 + s, blocks=2, block_edges=(2, 5),
                            cyclic_prob=0.0, bipartite_prob=0.3)
             for s in range(20)]  # acyclic LSP instances
    checked = 0
    for g in pool:
        if g.m > 12 or g.m == 0:
            continue
        assert solve_med(g).objective == len(oracle.brute_force_med(g)), g.meta
        checked += 1
    for n in (3, 4, 5, 6):
        sol, kind = extract_mscs_or_hamiltonian(fx[f"C{n}"])
        assert kind == "hamiltonian-cycle" and sol.objective == n
    sol, kind = extract_mscs_or_hamiltonian(fx["cyclic_diamond"])
    assert kind == "mscs" and sol.objective == len(oracle.brute_force_med(fx["cyclic_diamond"]))
    sol, kind = extract_mscs_or_hamiltonian(fx["diamond_ring"])
    assert kind == "mscs" and sol.objective == len(oracle.brute_force_med(fx["diamond_ring"]))
    sol, kind = extract_mscs_or_hamiltonian(fx["diamond"])
    assert kind == "not-strongly-connected"
    print(f"criterion 8: PASS (MED exact on {checked} instances; "
          "Hamiltonian/MSCS classification correct)")


def test_criterion_09_flow_ground_truth():
    rng = random.Random(909)
    graphs = [g for g in fixtures().values() if g.m <= 10]
    graphs += [_random_graph(rng, max_n=5, max_m=10) for _ in range(100)]
    pairs_checked = 0
    for g in graphs:
        for s in range(g.n):
            for t in range(g.n):
                if s == t:
                    continue
                assert max_flow_value(g, s, t) == \
                    edge_disjoint_paths_count(g, s, t), (g.edges, s, t)
                pairs_checked += 1
    print(f"criterion 9: PASS ({len(graphs)} graphs, {pairs_checked} ordered "
          "pairs, flow equals exhaustive disjoint-path count)")


def test_criterion_10_scaling_smoke():
    big_dsp = gen_random_dsp(99, 100_000)
    assert big_dsp.m >= 100_000
    start = time.time()
    sol = solve_dsp(big_dsp, HALF)
    dsp_elapsed = time.time() - start
    assert dsp_elapsed < 10.0
    assert 0 < sol.objective <= big_dsp.m

    big_lsp = gen_random_lsp(7, blocks=45, block_edges=(40, 110),
                             cyclic_prob=0.0, bipartite_prob=0.15, check=False)
    assert big_lsp.m >= 3_000
    start = time.time()
    sol = solve_lsp(big_lsp, HALF)
    lsp_elapsed = time.time() - start
    assert lsp_elapsed < 60.0
    assert 0 < sol.objective <= big_lsp.m
    print(f"criterion 10: PASS (solve_dsp {big_dsp.m} edges in {dsp_elapsed:.1f}s; "
          f"solve_lsp {big_lsp.m} edges in {lsp_elapsed:.1f}s)")

import time
import tracemalloc

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import mcps
from mcps import (BudgetExceededError, DirectedGraph, NotDspError, NotLspError,
                  RetentionRatio, check_p1, check_p2, eas_family,
                  find_w_subdivision, is_lsp, meas_partition, path_induced,
                  recognize_dsp, solve_lsp, solve_med, subdivide, to_edge_list)
from mcps import cli, oracle
import mcps.lsp as lsp_mod
import mcps.spdecomp as spdecomp_mod
from mcps.lsp import _is_dsp_with_terminals, _iter_bits, _source_row
from mcps.spdecomp import _leaf_edges, _reduce_graph, _vertex_lists
from mcps.generators import fixtures, gen_random_dsp, gen_random_lsp

from path_reference import check_p2_reference, enumerate_simple_path_edges, per_pair_path_induced
from strategies import digraphs, dsp_graphs, lsp_graphs, near_miss_dsps

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


def test_path_induced_budget_is_a_hard_error(monkeypatch):
    # the row from 0 has 15 simple-path prefixes against a budget of 3 * (4 - 1)
    monkeypatch.setattr(lsp_mod, "DEFAULT_PATH_BUDGET", 3)
    g = fixtures()["bidirected_K4"]
    with pytest.raises(BudgetExceededError,
                       match=r"^path enumeration budget exceeded: 9 steps from source 0$"):
        path_induced(g, 0, 3)


def test_mu_values():
    c4 = fixtures()["C4"]
    assert all(len(eas_family(c4)[e]) == 1 for e in range(4))
    assert len(eas_family(DAG3)[2]) == 3
    # the terminal edge s->t of the w_plus fixture is its endpoints' only simple path
    wp = fixtures()["w_plus"]
    assert len(eas_family(wp)[2]) == 1
    assert len(eas_family(wp)[2]) == len(enumerate_simple_path_edges(wp, 1, 2))


@settings(max_examples=100, deadline=None)
@given(digraphs(max_n=5, max_m=9))
def test_path_induced_matches_unpruned_enumeration(g):
    for s in range(g.n):
        for t in range(g.n):
            if s != t:
                assert path_induced(g, s, t) == \
                    enumerate_simple_path_edges(g, s, t)


@settings(max_examples=60, deadline=None)
@given(digraphs(max_n=6, max_m=10, acyclic=True))
def test_dag_shortcut_matches_enumeration(g):
    # same operation, but force the row walk that cyclic graphs take
    for s in range(g.n):
        row = _source_row(g, s)
        for t in range(g.n):
            if s != t:
                assert path_induced(g, s, t) == frozenset(_iter_bits(row[t]))


@settings(max_examples=150, deadline=None)
@given(digraphs(max_n=6, max_m=14))
@example(fixtures()["bidirected_K4"])
@example(fixtures()["w_plus"])
def test_row_walk_matches_per_pair_enumerations(g):
    assume(not g.is_acyclic())
    for s in range(g.n):
        row = _source_row(g, s)
        for t in range(g.n):
            if s != t:
                walked = frozenset(_iter_bits(row[t]))
                assert walked == enumerate_simple_path_edges(g, s, t), (s, t)
                assert walked == per_pair_path_induced(g, s, t, 10**6), (s, t)


def _pair_steps(g, s, t):
    """Smallest budget under which the per-pair enumeration of (s, t) ends."""
    lo, hi = 0, 1
    while True:
        try:
            per_pair_path_induced(g, s, t, hi)
            break
        except BudgetExceededError:
            lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            per_pair_path_induced(g, s, t, mid)
            hi = mid
        except BudgetExceededError:
            lo = mid
    return hi


@settings(max_examples=60, deadline=None)
@given(digraphs(max_n=6, max_m=13))
@example(fixtures()["bidirected_K4"])
@example(fixtures()["block_chain"])
def test_rows_fit_whenever_every_pair_fits(g):
    # B is the tightest budget under which every per-pair enumeration ends;
    # the per-source rows must then end under the same constant.
    assume(not g.is_acyclic())
    budget = max(_pair_steps(g, s, t) for s in range(g.n) for t in range(g.n) if s != t)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lsp_mod, "DEFAULT_PATH_BUDGET", budget)
        is_lsp(DirectedGraph(g.n, g.edges))
        eas_family(DirectedGraph(g.n, g.edges))


def test_lsp_pipeline_walks_each_row_at_most_once(monkeypatch):
    graphs = [gen_random_lsp(seed, blocks=4, block_edges=(3, 8), cyclic_prob=1.0,
                             bipartite_prob=0.0) for seed in range(8)]
    graphs += [g for g in fixtures().values() if not g.is_acyclic() and is_lsp(g).is_lsp]
    assert len(graphs) >= 12
    walked = []

    def counting(graph, s):
        walked.append(s)
        return _source_row(graph, s)

    monkeypatch.setattr(lsp_mod, "_source_row", counting)
    alpha = RetentionRatio(1, 2)
    for g in graphs:
        fresh = DirectedGraph(g.n, g.edges)  # no cached rows or verdict
        walked.clear()
        assert is_lsp(fresh).is_lsp
        solve_lsp(fresh, alpha)
        solve_med(fresh)
        assert walked and len(walked) == len(set(walked)) <= fresh.n, (g.edges, walked)


def test_check_p1():
    assert check_p1(fixtures()["W"]) == (0, 3)
    assert check_p1(fixtures()["diamond"]) is None
    assert check_p1(fixtures()["C4"]) is None


def _fails_p1(g, s, t):
    """Whether P(s, t) is neither empty nor a DSP on (s, t)."""
    edges = path_induced(g, s, t)
    return bool(edges) and not _is_dsp_with_terminals(g, edges, s, t, _vertex_lists(g))


def _check_p1_naive(g):
    """The first failing pair in id order over all pairs, or None."""
    return next(((s, t) for s in range(g.n) for t in range(g.n)
                 if s != t and _fails_p1(g, s, t)), None)


def _p1_candidates(g):
    """check_p1's stated candidates in id order: in each block with two or more
    edges of the core it reads (`_core`: the routes left by the shared
    reduction, cyclic or not), the block's own sources x its own sinks on a
    DAG, its edges' tails x heads otherwise."""
    host = lsp_mod._core(g)[2]
    pairs = set()
    for block in (block for block in host.blocks() if len(block) > 1):
        tails = {host.edges[e][0] for e in block}
        heads = {host.edges[e][1] for e in block}
        if g.is_acyclic():
            tails, heads = tails - heads, heads - tails
        pairs.update((s, t) for s in tails for t in heads if s != t)
    return sorted(pairs)


def _assert_p1_matches_all_pairs(g):
    witness = check_p1(g)
    assert (witness is None) == (_check_p1_naive(g) is None)
    if witness is not None:
        s, t = witness
        assert _fails_p1(g, s, t)
        assert any({s, t} <= {w for e in block for w in g.edges[e]} for block in g.blocks())
        assert witness == next(pair for pair in _p1_candidates(g) if _fails_p1(g, *pair))


def _relabeled(g, perm):
    """g with vertex v renamed perm[v], so topological and id order differ."""
    return DirectedGraph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


@st.composite
def _dsp_near_misses(draw):
    """A random DSP plus one edge it lacks."""
    g = draw(dsp_graphs(max_edges=14))
    extra = draw(st.sampled_from([(u, v) for u in range(g.n) for v in range(g.n)
                                  if u != v and not g.has_edge(u, v)]))
    return DirectedGraph(g.n, list(g.edges) + [extra])


@settings(max_examples=80, deadline=None)
@given(digraphs(max_n=9, max_m=16, acyclic=True), st.data())
def test_check_p1_dag_shortcut_agrees_with_pairwise_scan(g, data):
    _assert_p1_matches_all_pairs(_relabeled(g, data.draw(st.permutations(range(g.n)))))


@settings(max_examples=150, deadline=None)
@given(st.one_of(digraphs(max_n=9, max_m=16), lsp_graphs(), _dsp_near_misses()))
@example(DirectedGraph(5, [(0, 1), (1, 2), (2, 0), (1, 3), (3, 4), (4, 1), (2, 3)]))
# W on 0..3 closed into one block by 3 -> 4 and 0 -> 4: P(0, 3) fails first in
# id order, but the block's only sink is 4, so the witness is (0, 4)
@example(DirectedGraph(5, [(0, 1), (0, 2), (1, 3), (2, 3), (1, 2), (3, 4), (0, 4)]))
def test_check_p1_containment_skip_agrees_with_pairwise_scan(g):
    # a P(s, t) inside a recognized DSP P(s, t') passes unreduced, cyclic or not
    _assert_p1_matches_all_pairs(g)


@pytest.mark.parametrize("n", [5, 401])
def test_check_p1_witness_does_not_depend_on_isolated_vertices(n, tmp_path, capsys):
    # The whole DAG is one block of the reduced core (1 -> 2 -> 0 is one
    # route) whose sources are 1 and 3, so the first failing candidate is the
    # first failing pair over all pairs, at every size.
    g = DirectedGraph(n, [(0, 4), (3, 1), (2, 4), (1, 2), (2, 0), (1, 0)])
    assert _check_p1_naive(g) == (1, 4)
    assert check_p1(g) == (1, 4)
    path = tmp_path / "g.el"
    path.write_text(to_edge_list(g))
    assert cli.main(["recognize", "--input", str(path)]) == 0
    assert "p1_witness: 1 4\n" in capsys.readouterr().out


@pytest.mark.parametrize("seed", [202, 1, 2])
def test_check_p1_reduces_at_most_once_per_core_block(seed, monkeypatch):
    # Candidates lie inside one block of the reduced core, and on these LSPs
    # each block's candidates take one reduction or are lone routes.
    g = gen_random_lsp(seed, blocks=60, block_edges=(8, 24), cyclic_prob=0,
                       bipartite_prob=0.2)
    calls = []

    def counting(triples, lists):
        calls.append(None)
        return real_reduce(triples, lists)

    real_reduce = lsp_mod._reduce
    monkeypatch.setattr(lsp_mod, "_reduce", counting)
    assert check_p1(g) is None
    core_blocks = sum(len(block) > 1 for block in lsp_mod._core(g)[2].blocks())
    assert len(calls) <= core_blocks


@pytest.mark.parametrize("edges", [[(0, 1), (1, 2)], [(0, 1), (1, 2), (2, 0)]])
def test_check_p1_scans_only_vertices_with_edges(edges, monkeypatch):
    # P(s, t) is empty unless s has an edge out and t an edge in, so a
    # header's isolated vertices are never candidate sources or targets.
    sources, targets = [], []

    class CountingRow(list):
        def __getitem__(self, t):
            targets.append(t)
            return super().__getitem__(t)

    def counting(g, s):
        sources.append(s)
        reach, row = real_pair_row(g, s)
        return reach, CountingRow(row)

    real_pair_row = lsp_mod._pair_row
    monkeypatch.setattr(lsp_mod, "_pair_row", counting)
    assert check_p1(DirectedGraph(3000, edges)) is None
    assert len(sources) <= 3 and len(targets) <= 9


@pytest.mark.parametrize("k", range(4, 9))
def test_check_p1_reduces_a_directed_cycle_once_per_source(k, monkeypatch):
    # Each P(s, t) of C_k is the path s -> t, inside P(s, s - 1): one
    # reduction per source instead of one per pair with two or more edges.
    calls = []

    def counting(triples, lists):
        calls.append(None)
        return real_reduce(triples, lists)

    real_reduce = lsp_mod._reduce
    monkeypatch.setattr(lsp_mod, "_reduce", counting)
    assert check_p1(DirectedGraph(k, [(v, (v + 1) % k) for v in range(k)])) is None
    assert len(calls) <= k


def test_check_p1_witness_is_a_core_candidate_on_a_cyclic_graph():
    # 3 has one edge in and one out, so the shared reduction contracts it
    # into the route 2 -> 4; P(3, 2) and P(4, 2) both fail, and only (4, 2)
    # is a candidate of the core
    g = DirectedGraph(6, [(0, 2), (0, 5), (5, 2), (2, 3), (3, 4), (4, 1), (1, 0), (4, 5)])
    assert _fails_p1(g, 3, 2) and _fails_p1(g, 4, 2)
    assert check_p1(g) == (4, 2)


@pytest.mark.parametrize("blocks", [40, 80])
def test_cyclic_lsp_rows_walk_only_the_reduced_core(blocks, monkeypatch):
    # Each source may walk only n - 1 path prefixes. The core's rows fit that
    # budget; the whole graph's simple paths, chained through cyclic blocks,
    # do not.
    g = gen_random_lsp(1, blocks=blocks, block_edges=(8, 24), cyclic_prob=0.5,
                       bipartite_prob=0.2, check=False)
    assert not g.is_acyclic()
    monkeypatch.setattr(lsp_mod, "DEFAULT_PATH_BUDGET", 1)
    assert is_lsp(g).is_lsp


def test_p2_and_every_block_dsp_do_not_imply_p1():
    # P2 holds and every maximal EAS block is a DSP on its defining edge,
    # yet P(0, 6) spans two blocks and contains W: pairs whose paths cross
    # blocks must still be checked.
    g = DirectedGraph(7, [(0, 1), (0, 2), (1, 3), (1, 6), (2, 3), (3, 4), (3, 6), (4, 6)])
    assert check_p2(g) is None
    assert check_p1(g) == (0, 6)
    assert not is_lsp(g).is_lsp


def test_check_p1_reduces_a_dag_once_then_only_core_routes(monkeypatch):
    # Across P1 and P2 (and the EAS family, the MEAS blocks and MED they
    # feed), and after recognize_dsp, a DAG is reduced whole once, later
    # reductions take only core routes, and the only closure masks built
    # are the core's.
    calls, masked = [], []

    def counting(nodes, routes, lists):
        size = len(routes)
        remaining = real_contract(nodes, routes, lists)
        calls.append((size, len(remaining)))
        return remaining

    def recording(graph):
        masked.append(graph)
        return real_masks(graph)

    def recognize_then_is_lsp(host):
        try:
            recognize_dsp(host)
        except NotDspError:
            pass
        return is_lsp(host)

    real_contract, real_masks = spdecomp_mod._contract, lsp_mod._closure_edge_masks
    monkeypatch.setattr(spdecomp_mod, "_contract", counting)
    monkeypatch.setattr(lsp_mod, "_closure_edge_masks", recording)
    checked = 0
    lsps = [gen_random_lsp(seed, blocks=5, block_edges=(3, 10), cyclic_prob=0,
                           bipartite_prob=0.3) for seed in range(8)]
    # recognize_dsp reduces only single-source, single-sink graphs
    for g in lsps + [gen_random_dsp(seed, 60) for seed in range(4)]:
        for run in (check_p1, is_lsp, recognize_then_is_lsp):
            host = DirectedGraph(g.n, g.edges)
            calls.clear()
            masked.clear()
            if run is check_p1:
                assert check_p1(host) is None
            else:
                assert run(host) == mcps.LspVerdict(None, None)
                meas_partition(host)
                solve_med(host)
            (first_in, core), *later = calls
            assert first_in == g.m and sum(size == g.m for size, _ in calls) == 1
            assert all(size <= core for size, _ in later), (core, later)
            assert all(m is not host and m.m == core for m in masked)
            if run is check_p1:  # P1 reads masks only for a block of two or more routes
                core_blocks = lsp_mod._core(host)[2].blocks()
                assert bool(masked) == any(len(block) > 1 for block in core_blocks)
            checked += bool(later)
    assert checked  # some graph needed per-pair reductions on its core


def _fresh_answers(g, path, capsys):
    """Every LSP answer on g, each from a fresh copy of the graph, and the
    CLI's output for med, solve --mode lsp and recognize --tree on path."""
    def fresh():
        return DirectedGraph(g.n, g.edges)

    def solution(sol):
        return sol.objective, sol.mcps_star, sorted(sol.edges)

    out = [is_lsp(fresh()), [sorted(b) for b in meas_partition(fresh())],
           solution(solve_lsp(fresh(), RetentionRatio(2, 3))), solution(solve_med(fresh()))]
    for argv in (["med", "--input", path],
                 ["solve", "--mode", "lsp", "--alpha", "2/3", "--input", path],
                 ["recognize", "--tree", "--input", path]):
        code = cli.main(argv)
        out.append((code, *capsys.readouterr()))
    return out


@pytest.mark.parametrize("g", [
    gen_random_dsp(3, 40),
    gen_random_lsp(5, blocks=6, block_edges=(3, 10), cyclic_prob=0, bipartite_prob=0.3),
], ids=["dsp", "lsp-dag"])
def test_dag_over_the_mask_cap_answers_when_its_core_fits(g, monkeypatch, tmp_path, capsys):
    # With the cap at the core's n*m, below the input's, every answer that
    # reads the EAS family stays as it was; a host path query still raises.
    path = str(tmp_path / "g.el")
    (tmp_path / "g.el").write_text(to_edge_list(g))
    before = _fresh_answers(g, path, capsys)
    assert before[0].is_lsp and all(code == 0 for code, _, _ in before[4:])
    core = len(lsp_mod._core(DirectedGraph(g.n, g.edges))[1])
    assert core < g.m
    monkeypatch.setattr(lsp_mod, "_MASK_LIMIT_BITS", g.n * core)
    assert _fresh_answers(g, path, capsys) == before
    u, v = g.edges[0]
    with pytest.raises(BudgetExceededError, match=f"^{_OVER_CAP_PREFIX}"):
        path_induced(DirectedGraph(g.n, g.edges), u, v)


@settings(max_examples=300, deadline=None)
@given(digraphs(max_n=9, max_m=18, acyclic=True), st.data())
@example(fixtures()["W"], None)
@example(gen_random_dsp(7, 15), None)
def test_dag_eas_family_from_the_shared_reduction_matches_path_induced(g, data):
    if data is not None:
        g = _relabeled(g, data.draw(st.permutations(range(g.n))))
    host = DirectedGraph(g.n, g.edges)  # path_induced reads the host's own masks
    assert eas_family(g) == tuple(path_induced(host, u, v) for u, v in g.edges)


def _recognized_terminals(g, edges):
    """The pair decision's reference route: relabel the subgraph on `edges`
    to dense ids, recognize it and map its terminals back (None if it is not
    a DSP)."""
    idx = sorted(edges)
    verts = sorted({w for i in idx for w in g.edges[i]})
    dense = {w: k for k, w in enumerate(verts)}
    sub = DirectedGraph(len(verts), [(dense[g.edges[i][0]], dense[g.edges[i][1]])
                                     for i in idx])
    try:
        rs, rt = recognize_dsp(sub).terminals()
    except NotDspError:
        return None
    return verts[rs], verts[rt]


@settings(max_examples=200, deadline=None)
@given(digraphs(max_n=6, max_m=11))
@example(DirectedGraph(4, [(0, 1), (0, 2), (1, 2), (2, 1), (1, 3), (2, 3)]))  # cyclic P(0, 3)
@example(fixtures()["w_plus"])
def test_pair_decision_matches_relabel_and_recognize(g):
    for s in range(g.n):
        for t in range(g.n):
            if s == t:
                continue
            edges = path_induced(g, s, t)
            if edges:
                assert _is_dsp_with_terminals(g, edges, s, t, _vertex_lists(g)) == \
                    (_recognized_terminals(g, edges) == (s, t)), (s, t)


def test_check_p1_and_solve_lsp_build_no_tree(monkeypatch):
    graphs = [gen_random_lsp(seed, blocks=4, block_edges=(3, 8), cyclic_prob=0.5,
                             bipartite_prob=0.3) for seed in range(6)]
    graphs.append(fixtures()["W"])
    alpha = RetentionRatio(1, 2)
    expected = [(check_p1(g), solve_lsp(g, alpha).objective if is_lsp(g).is_lsp else None)
                for g in graphs]

    def forbidden(*args, **kwargs):
        raise AssertionError("P1 check or LSP block built a decomposition tree")

    for module in (mcps, mcps.spdecomp, mcps.lsp, mcps.solver):
        for name in ("recognize_dsp", "DecompositionTree"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    for g, (p1, objective) in zip(graphs, expected):
        fresh = DirectedGraph(g.n, g.edges)  # no cached verdict
        assert check_p1(fresh) == p1
        if objective is not None:
            assert solve_lsp(fresh, alpha).objective == objective


def test_check_p1_and_solve_lsp_make_one_list_set_per_call(monkeypatch):
    # the reductions of all of check_p1's pairs, and of all of solve_lsp's
    # blocks, share one set of `_contract` lists, each handed back zero
    g = gen_random_lsp(202, blocks=12, block_edges=(8, 24), cyclic_prob=0.3,
                       bipartite_prob=0.2)
    assert is_lsp(g).is_lsp  # caches the shared reduction and the MEAS blocks
    made, used = [], []

    def making(graph):
        made.append(real_lists(graph))
        return made[-1]

    def using(nodes, routes, lists):
        assert not any(map(any, lists))
        used.append(lists)
        return real_contract(nodes, routes, lists)

    real_lists, real_contract = spdecomp_mod._vertex_lists, spdecomp_mod._contract
    for module in (spdecomp_mod, lsp_mod, mcps.solver):
        monkeypatch.setattr(module, "_vertex_lists", making)
    monkeypatch.setattr(spdecomp_mod, "_contract", using)
    monkeypatch.setattr(mcps.solver, "_contract", using)
    for run in (check_p1, lambda g: solve_lsp(g, RetentionRatio(1, 2))):
        made.clear()
        used.clear()
        run(g)
        assert len(made) == 1 and len(used) > 1
        assert all(lists is made[0] for lists in used)


def test_check_p2():
    assert check_p2(fixtures()["W"]) == (1, 2)
    for name in ("block_chain", "diamond_ring", "K33"):
        assert check_p2(fixtures()[name]) is None


def _check_p2_definition(g):
    """The distinct EAS sets in (-size, smallest edge) order; the first pair
    (i, j), i < j in that order, with j ascending and then i, whose sets are
    neither nested nor disjoint, as their defining edges (the first edge whose
    EAS set each one is), sorted; None when there is none."""
    sets = eas_family(g)
    defining = {}
    for e, s in enumerate(sets):
        defining.setdefault(s, e)
    ordered = sorted(defining, key=lambda s: (-len(s), min(s)))
    for j, b in enumerate(ordered):
        for a in ordered[:j]:
            if not (a <= b or b <= a or a.isdisjoint(b)):
                return tuple(sorted((defining[a], defining[b])))
    return None


@settings(max_examples=80, deadline=None)
@given(digraphs(max_n=6, max_m=12))
def test_check_p2_matches_its_definition(g):
    assert check_p2(g) == _check_p2_definition(g)


def test_check_p2_witness_without_rescan():
    # a DSP plus one forward edge across it fails P2 with m = 7,461; the
    # witness comes from the scan that decides P2, with no pass over edge pairs
    base = gen_random_dsp(3, 6000)
    topo = base.topological_order()
    g = DirectedGraph(base.n, list(base.edges) + [(topo[1], topo[-2])])
    assert g.m == 7461
    start = time.perf_counter()
    witness = check_p2(g)
    elapsed = time.perf_counter() - start
    assert witness is not None and witness == _check_p2_definition(g)
    assert elapsed < 1.0


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
    distinct = set(eas_family(g))
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
        assert e in fam[e]
        assert len(fam[e]) >= 1


@settings(max_examples=30, deadline=None)
@given(lsp_graphs())
def test_each_eas_lies_in_exactly_one_meas(g):
    parts = [set(p.sorted()) for p in meas_partition(g)]
    fam = eas_family(g)
    for e in range(g.m):
        containing = [p for p in parts if set(fam[e]) <= p]
        assert len(containing) == 1


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 5), st.sampled_from([
    (0.5, 0.0), (0.0, 0.5), (0.3, 0.3), (0.0, 0.0)]))
def test_each_meas_block_has_one_defining_edge_and_solve_lsp_reduces_on_it(
        seed, blocks, probs):
    cyclic_prob, bipartite_prob = probs
    g = gen_random_lsp(seed, blocks=blocks, block_edges=(2, 8),
                       cyclic_prob=cyclic_prob, bipartite_prob=bipartite_prob)
    sets = eas_family(g)
    parts = [block.indices for block in meas_partition(g)]
    defining = []
    for block in parts:
        owners = [e for e in block if sets[e] == block]
        assert len(owners) == 1, (g.edges, block)
        defining.append(owners[0])
    contracted, ends = [], []

    def recording(nodes, routes, lists):
        contracted.append(sorted(routes.values()))
        remaining = real_contract(nodes, routes, lists)
        ends.append(remaining[0][:2])
        return remaining

    real_contract = mcps.solver._contract
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mcps.solver, "_contract", recording)
        solve_lsp(g, RetentionRatio(1, 2))
    # a block's routes are the routes of `_core` whose edges all lie in it;
    # every block of two or more routes is contracted, in block order, from
    # exactly its routes down to the route of its defining edge, and no
    # other block is
    _, core, _, route_edges = lsp_mod._core(g)
    routes = [(i, set(edges)) for (_, _, i), edges in zip(core, route_edges)]
    in_block = [sorted(i for i, leaves in routes if leaves <= block) for block in parts]
    multi = [k for k, block_routes in enumerate(in_block) if len(block_routes) > 1]
    assert contracted == [in_block[k] for k in multi]
    assert ends == [g.edges[defining[k]] for k in multi]


@settings(max_examples=150, deadline=None)
@given(st.one_of(digraphs(max_n=6, max_m=10), lsp_graphs(max_blocks=4, block_hi=8),
                 near_miss_dsps(), lsp_graphs(max_blocks=12, block_hi=12)))
def test_check_p2_matches_the_owner_scan_over_every_set(g):
    # singletons and sets inside one route cross nothing: a scan over the
    # core sets alone keeps the witness the scan over every distinct EAS set
    # gives, and meas_partition its blocks
    witness, blocks = check_p2_reference(DirectedGraph(g.n, g.edges))
    assert check_p2(g) == witness
    if is_lsp(g).is_lsp:
        assert [p.sorted() for p in meas_partition(g)] == [sorted(block) for _, block in blocks]
    else:
        with pytest.raises(NotLspError):
            meas_partition(g)


def test_subdivide():
    two_path = subdivide(DirectedGraph(2, [(0, 1)]))
    assert two_path.n == 3 and two_path.edges == ((0, 2), (2, 1))
    sw = subdivide(fixtures()["W"])
    assert sw.n == 9 and sw.m == 10
    assert check_p2(sw) is None
    st = subdivide(DirectedGraph(3, [(0, 1), (1, 2), (2, 0)]))
    assert st.n == 6 and st.m == 6
    assert all(st.in_degree(v) == 1 and st.out_degree(v) == 1 for v in range(6))
    assert len(st.reachable_from(0)) == 6


@settings(max_examples=60, deadline=None)
@given(digraphs(max_n=5, max_m=8))
def test_subdivide_always_satisfies_p2(g):
    assert check_p2(subdivide(g)) is None


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


@pytest.mark.parametrize("name,charge", [("W", 16), ("block_chain", 80), ("bidirected_C6", 3852)])
def test_find_w_subdivision_budget_threshold(name, charge):
    # the exact total charge: one step per edge each reachability BFS scans,
    # plus the path search; one step less raises
    g = fixtures()[name]
    assert find_w_subdivision(g, budget=charge) == find_w_subdivision(g)
    with pytest.raises(BudgetExceededError):
        find_w_subdivision(g, budget=charge - 1)


@settings(max_examples=40, deadline=None)
@given(dsp_graphs(max_edges=10))
def test_dsp_has_no_w_subdivision(g):
    assert find_w_subdivision(g) is None


@settings(max_examples=100, deadline=None)
@given(digraphs(max_n=5, max_m=9))
def test_p1_iff_no_w_subdivision(g):
    found = find_w_subdivision(g)
    assert (check_p1(g) is None) == (found is None)
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
            assert all(len(eas_family(g)[e]) == 1 for e in med)


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
        assert check_p1(g) is None


_OVER_CAP_PREFIX = r"graph too large for exact path-set computation \(n\*m = "
_OVER_CAP = ("graph too large for exact path-set computation "
             "(n*m = 20 exceeds the closure-mask cap)")


def test_dag_path_sets_over_the_mask_cap_are_a_budget_error(monkeypatch, tmp_path, capsys):
    # W is an irreducible DAG, so the P1 check's shared reduction leaves all
    # of it and its core's masks are over the cap as well.
    monkeypatch.setattr(lsp_mod, "_MASK_LIMIT_BITS", 19)
    w = fixtures()["W"]
    for query in (lambda g: path_induced(g, 0, 3), check_p1, eas_family, is_lsp):
        with pytest.raises(BudgetExceededError) as err:
            query(DirectedGraph(w.n, w.edges))
        assert str(err.value) == _OVER_CAP
    path = tmp_path / "w.el"
    path.write_text(to_edge_list(w))
    assert cli.main(["med", "--input", str(path)]) == 4
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"budget exceeded: {_OVER_CAP}\n"


def test_p1_alone_over_the_mask_cap_raises_when_the_core_shrank(monkeypatch):
    monkeypatch.setattr(lsp_mod, "_MASK_LIMIT_BITS", 10)
    # 0 -> 1 -> 2 reduces to one route, so the core (n*m = 12 * 1) is over
    # the cap, though no block of it has two routes
    with pytest.raises(BudgetExceededError, match=r"\(the reduced core's n\*m = 12 "
                       r"exceeds the closure-mask cap; the input's n\*m is 24\)$"):
        check_p1(DirectedGraph(12, [(0, 1), (1, 2)]))
    # nothing reduces and each route is its own block, so P1 reads no mask;
    # the EAS family does
    fan = DirectedGraph(12, [(0, 1), (0, 2)])
    assert check_p1(fan) is None
    with pytest.raises(BudgetExceededError, match=f"^{_OVER_CAP_PREFIX}24 "):
        is_lsp(fan)


@settings(max_examples=100, deadline=None)
@given(st.one_of(digraphs(max_n=7, max_m=12), lsp_graphs(max_blocks=4, block_hi=8)))
def test_core_routes_partition_the_edges(g):
    # the routes are those left by the shared reduction on every graph, cyclic
    # or not; route r joins its node's terminals, its edges are the leaves
    # under that node, and the EAS family read from the routes is the path
    # table's
    nodes, routes, core, route_edges = lsp_mod._core(g)
    assert routes == _reduce_graph(DirectedGraph(g.n, g.edges))[1]
    assert sorted(e for edges in route_edges for e in edges) == list(range(g.m))
    assert core.edges == tuple((x, y) for x, y, _ in routes)
    for (x, y, i), edges in zip(routes, route_edges):
        assert (nodes.s[i], nodes.t[i]) == (x, y)
        assert sorted(edges) == sorted(_leaf_edges(nodes, i))
    host = DirectedGraph(g.n, g.edges)  # path_induced reads the host's own table
    assert eas_family(g) == tuple(path_induced(host, u, v) for u, v in g.edges)


def test_core_over_the_mask_cap_names_the_core_and_the_input(monkeypatch, tmp_path, capsys):
    # the shared reduction contracts 4 into the route 3 -> 5, so the core
    # (n*m = 6 * 6) is over the cap, and smaller than the input (6 * 7)
    monkeypatch.setattr(lsp_mod, "_MASK_LIMIT_BITS", 35)
    g = DirectedGraph(6, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5)])
    message = ("graph too large for exact path-set computation (the reduced core's "
               "n*m = 36 exceeds the closure-mask cap; the input's n*m is 42)")
    for query in (check_p1, is_lsp):
        with pytest.raises(BudgetExceededError) as err:
            query(DirectedGraph(g.n, g.edges))
        assert str(err.value) == message
    path = tmp_path / "g.el"
    path.write_text(to_edge_list(g))
    for argv in (["recognize", "--input", str(path)],
                 ["solve", "--input", str(path), "--alpha", "1/2"]):
        assert cli.main(argv) == 4
        out = capsys.readouterr()
        assert out.out == "" and out.err == f"budget exceeded: {message}\n"


def _nested_dsp(k: int) -> DirectedGraph:
    # edges (i, i+1) for i < k and (i, k) for i < k-1: terminal-edge P nodes
    # nest k deep, and their EAS sets hold about k^2 / 2 edges in all
    return DirectedGraph(k + 1, [(i, i + 1) for i in range(k)] + [(i, k) for i in range(k - 1)])


def test_is_lsp_on_a_nested_dsp_allocates_by_the_core_not_the_eas_family():
    g = _nested_dsp(4_000)
    tracemalloc.start()
    try:
        verdict = is_lsp(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.is_lsp
    assert "eas_family" not in g._cache
    assert peak < 16_000_000, peak


def _refuse_eas_family(graph):
    raise AssertionError("an LSP step built the per-edge EAS family")


@settings(max_examples=40, deadline=None)
@given(st.one_of(lsp_graphs(max_blocks=6, block_hi=10), near_miss_dsps(lo=10, hi=40)))
def test_no_lsp_step_builds_the_eas_family(g):
    # P2, the MEAS blocks and the LSP solver read core-route masks only
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lsp_mod, "eas_family", _refuse_eas_family)
        if is_lsp(g).is_lsp:
            solve_lsp(g, RetentionRatio(1, 2))
            solve_med(g)


@pytest.mark.parametrize("name", sorted(fixtures()))
def test_no_command_builds_the_eas_family(monkeypatch, tmp_path, capsys, name):
    # the refusal's AssertionError is no error `cli.main` turns into an exit code
    monkeypatch.setattr(lsp_mod, "eas_family", _refuse_eas_family)
    graph_path, sol_path = tmp_path / "g.el", tmp_path / "sol.json"
    graph_path.write_text(to_edge_list(fixtures()[name]))
    cli.main(["solve", "--input", str(graph_path), "--alpha", "1/2"])
    sol_path.write_text(capsys.readouterr().out)
    for argv in (["check", "--input", str(graph_path), "--solution", str(sol_path),
                  "--alpha", "1/2"],
                 ["recognize", "--input", str(graph_path)],
                 ["med", "--input", str(graph_path)],
                 ["stats", "--input", str(graph_path)]):
        cli.main(argv)

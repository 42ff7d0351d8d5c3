import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mcps import (DirectedGraph, NotDspError, RetentionRatio, max_flow_value, path_induced,
                  recognize_dsp)
from mcps.generators import fixtures, gen_random_dsp
from mcps.spdecomp import (LEAF, PARALLEL, SERIES, DecompositionTree, NodeStore, _dsp_root,
                           _contract, _fold, _leaves, _reduce, _reduce_graph, _vertex_lists)

from path_reference import check_p2_reference, contract_reference, fold_reference
from strategies import digraphs, dsp_graphs, lsp_graphs

ALPHAS = [RetentionRatio(1, 3), RetentionRatio(1, 2), RetentionRatio(2, 3), RetentionRatio(3, 4)]


def test_single_edge_is_leaf_tree():
    tree = recognize_dsp(DirectedGraph(2, [(0, 1)]))
    nodes, root = tree.nodes, tree.root
    assert nodes.kind[root] == LEAF and (nodes.s[root], nodes.t[root]) == (0, 1)
    assert tree.children(root) == []
    assert tree.cap_full[tree.root] == 1


def test_w_graph_rejected_with_subdivision_witness():
    w = fixtures()["W"]
    with pytest.raises(NotDspError) as err:
        recognize_dsp(w)
    witness = err.value.witness
    assert witness.reason == "w-subdivision"
    assert witness.w is not None
    witness.w.validate(w)


def test_cycle_and_terminal_witnesses():
    with pytest.raises(NotDspError) as err:
        recognize_dsp(DirectedGraph(3, [(0, 1), (1, 2), (2, 0)]))
    assert err.value.witness.reason == "cyclic"
    assert err.value.witness.cycle is not None
    with pytest.raises(NotDspError) as err:
        recognize_dsp(DirectedGraph(3, [(0, 2), (1, 2)]))
    assert err.value.witness.reason == "multiple-sources"
    with pytest.raises(NotDspError) as err:
        recognize_dsp(DirectedGraph(3, [(0, 1), (0, 2)]))
    assert err.value.witness.reason == "multiple-sinks"


@pytest.mark.parametrize("edges", [
    [(0, 1), (1, 2), (2, 3), (2, 1)],          # back edge inside a path
    [(0, 1), (1, 2), (1, 3), (3, 1)],          # 2-cycle off a path: a self-loop route
], ids=["back-edge", "hanging-2-cycle"])
def test_cycle_behind_unique_source_and_sink(edges):
    # the source/sink test passes and the reduction runs first; its failure
    # must still be reported as the cycle, exactly as find_cycle gives it
    g = DirectedGraph(4, edges)
    assert g.sources() == [0] and len(g.sinks()) == 1
    with pytest.raises(NotDspError) as err:
        recognize_dsp(g)
    assert err.value.witness.reason == "cyclic"
    assert err.value.witness.cycle == tuple(g.find_cycle())


@settings(max_examples=300, deadline=None)
@given(digraphs(max_n=6, max_m=10))
def test_rejection_reason_priority(g):
    # no-edges > cyclic > multiple-sources > multiple-sinks > w-subdivision
    cycle = g.find_cycle()
    try:
        tree = recognize_dsp(g)
    except NotDspError as err:
        witness = err.witness
        if g.m == 0:
            assert witness.reason == "no-edges"
        elif cycle is not None:
            assert witness.reason == "cyclic" and witness.cycle == tuple(cycle)
        elif len(g.sources()) != 1:
            assert witness.reason == "multiple-sources"
            assert witness.sources == tuple(g.sources())
        elif len(g.sinks()) != 1:
            assert witness.reason == "multiple-sinks"
            assert witness.sinks == tuple(g.sinks())
        else:
            assert witness.reason == "w-subdivision"
    else:
        assert cycle is None and tree.terminals() == (g.sources()[0], g.sinks()[0])
        tree.validate()


@pytest.mark.parametrize("n,edges,reason,field,value", [
    (4, [(0, 1), (1, 2), (0, 2)], "multiple-sources", "sources", (0, 3)),
    (4, [(1, 2), (2, 3), (1, 3)], "multiple-sources", "sources", (0, 1)),
    (4, [(0, 1), (1, 2), (2, 0)], "cyclic", "cycle", None),
], ids=["dsp-then-isolated", "isolated-then-dsp", "cycle-and-isolated"])
def test_an_isolated_vertex_keeps_its_rejection_reason(n, edges, reason, field, value):
    # a DSP plus an isolated vertex reduces to one route after n - 3 series
    # steps, not n - 2, so it is rejected, with the reason the sources give
    g = DirectedGraph(n, edges)
    with pytest.raises(NotDspError) as err:
        recognize_dsp(g)
    witness = err.value.witness
    assert witness.reason == reason
    assert getattr(witness, field) == (value if value is not None else tuple(g.find_cycle()))


def test_edgeless_input_is_an_error():
    for n in (1, 3):
        with pytest.raises(NotDspError) as err:
            recognize_dsp(DirectedGraph(n, []))
        assert err.value.witness.reason == "no-edges"


def test_diamond_tree_shape():
    tree = recognize_dsp(fixtures()["diamond"])
    kind = tree.nodes.kind
    assert kind[tree.root] == PARALLEL
    assert [kind[c] for c in tree.children(tree.root)] == [SERIES, SERIES]
    assert tree.cap_full[tree.root] == 2
    tree.validate()


def test_recognition_is_deterministic():
    g = gen_random_dsp(5, 30)
    assert recognize_dsp(g).dump() == recognize_dsp(g).dump()


def _parallel_routes_graph():
    # s=0, t=1; routes 0->2->1 and 0->3->1; plus the terminal edge 0->1
    return DirectedGraph(4, [(0, 2), (2, 1), (0, 3), (3, 1), (0, 1)])


def test_recognition_puts_terminal_leaf_first():
    # the two routes and the terminal edge 0->1 form one flat P node
    g = _parallel_routes_graph()
    tree = recognize_dsp(g)
    tree.validate()
    kind, children = tree.nodes.kind, tree.children(tree.root)
    assert kind[tree.root] == PARALLEL and len(children) == 3
    first = children[0]
    assert kind[first] == LEAF and tree.nodes.edge[first] == 4
    assert [kind[c] for c in children[1:]] == [SERIES, SERIES]
    assert tree.cap_full[tree.root] == 3


def _hand_built_tree(g, leaf_edges, inner):
    """A tree over a node store built by hand: one leaf per edge id in
    `leaf_edges`, then the inner nodes (kind, children) on the terminals
    (0, 1), the last of them the root."""
    size = len(leaf_edges) + len(inner)
    nodes = NodeStore(
        kind=[LEAF] * len(leaf_edges) + [k for k, _ in inner],
        edge=list(leaf_edges),
        s=[g.edges[e][0] for e in leaf_edges] + [0] * len(inner),
        t=[g.edges[e][1] for e in leaf_edges] + [1] * len(inner),
        first=[-1] * size, second=[-1] * size, sibling=[-1] * size)
    for i, (_, children) in enumerate(inner, len(leaf_edges)):
        nodes.first[i], nodes.second[i] = children[0], children[-1]
        for a, b in zip(children, children[1:]):
            nodes.sibling[a] = b
    return DecompositionTree(g, nodes, size - 1)


# nodes 5 and 6 are S nodes over the two routes 0->2->1 and 0->3->1 (4 when
# edge 4 has no leaf); the P nodes above them are the corruptions
_ROUTES = [(SERIES, [0, 1]), (SERIES, [2, 3])]


@pytest.mark.parametrize("leaf_edges,inner,cap,message", [
    (range(5), _ROUTES + [(PARALLEL, [4, 5]), (PARALLEL, [7, 6])], 3, "has a P child"),
    (range(5), _ROUTES + [(PARALLEL, [5, 4, 6])], 3, "has a leaf after its first child"),
    (range(4), _ROUTES + [(PARALLEL, [4, 5])], 2, "leaves do not biject"),
], ids=["p-child", "late-leaf", "edge-without-leaf"])
def test_validate_rejects_unflattened_parallel_nodes(leaf_edges, inner, cap, message):
    tree = _hand_built_tree(_parallel_routes_graph(), leaf_edges, inner)
    assert tree.cap_full[tree.root] == cap
    with pytest.raises(AssertionError, match=message):
        tree.validate()


def _assert_fold_matches_reference(nodes, root):
    for alpha in ALPHAS:
        assert _fold(nodes, (root,), alpha) == fold_reference(nodes, root, alpha)


# the stores of test_validate_rejects_unflattened_parallel_nodes, plus a P
# child after the first: a P node under a P node is the one case of the
# fold's recursive close
@pytest.mark.parametrize("leaf_edges,inner", [
    (range(5), _ROUTES + [(PARALLEL, [4, 5]), (PARALLEL, [7, 6])]),
    (range(5), _ROUTES + [(PARALLEL, [5, 4, 6])]),
    (range(4), _ROUTES + [(PARALLEL, [4, 5])]),
    (range(5), _ROUTES + [(PARALLEL, [4, 5]), (PARALLEL, [6, 7])]),
], ids=["p-child", "late-leaf", "edge-without-leaf", "late-p-child"])
def test_fold_matches_the_postorder_reference_on_hand_built_stores(leaf_edges, inner):
    tree = _hand_built_tree(_parallel_routes_graph(), leaf_edges, inner)
    _assert_fold_matches_reference(tree.nodes, tree.root)


@settings(max_examples=60, deadline=None)
@given(dsp_graphs(max_edges=30))
def test_fold_matches_the_postorder_reference_on_dsps(g):
    tree = recognize_dsp(g)
    _assert_fold_matches_reference(tree.nodes, tree.root)


@settings(max_examples=40, deadline=None)
@given(lsp_graphs(max_blocks=4, block_hi=10))
def test_fold_matches_the_postorder_reference_on_lsp_blocks(g):
    # each MEAS block reduced and rooted as `solve_lsp` does it
    for defining, block in check_p2_reference(g)[1]:
        nodes, remaining = _reduce(((e, *g.edges[e]) for e in sorted(block)), _vertex_lists(g))
        root = _dsp_root(remaining, *g.edges[defining])
        _assert_fold_matches_reference(nodes, root)


@settings(max_examples=40, deadline=None)
@given(dsp_graphs(max_edges=14))
def test_cap_full_matches_flow_at_every_node(g):
    tree = recognize_dsp(g)
    tree.validate()
    leaf_sets = _leaf_sets(tree)
    nodes = tree.nodes
    for i in range(len(nodes.kind)):
        sub_flow = max_flow_value(g, nodes.s[i], nodes.t[i], edges=leaf_sets[i])
        assert tree.cap_full[i] == sub_flow


@settings(max_examples=40, deadline=None)
@given(dsp_graphs(max_edges=14))
def test_clean_tree_terminal_edge_invariant(g):
    # recognition yields a clean tree: no P node has a P child, and a P
    # node's terminal edge, when inside its subtree, is its first child
    tree = recognize_dsp(g)
    tree.validate()
    leaf_sets = _leaf_sets(tree)
    nodes = tree.nodes
    for i in range(len(nodes.kind)):
        if nodes.kind[i] != PARALLEL:
            continue
        children = tree.children(i)
        assert all(nodes.kind[c] != PARALLEL for c in children)
        terminal_edge = g.edge_index(nodes.s[i], nodes.t[i])
        if terminal_edge is None or terminal_edge not in leaf_sets[i]:
            continue
        first = children[0]
        assert nodes.kind[first] == LEAF and nodes.edge[first] == terminal_edge


def _leaf_sets(tree):
    nodes = tree.nodes
    sets = [set() for _ in nodes.kind]
    for i in tree.postorder:
        if nodes.kind[i] == LEAF:
            sets[i] = {nodes.edge[i]}
        else:
            sets[i] = set().union(*(sets[c] for c in tree.children(i)))
    return sets


def test_tree_dump_shows_structure():
    dump = recognize_dsp(fixtures()["diamond"]).dump()
    assert dump.splitlines()[0].startswith("parallel (0,3) cap=2")
    assert "leaf e0 (0,1) cap=1" in dump


@pytest.mark.parametrize("seed,target", [(1, 60), (2, 120), (3, 200)])
def test_cap_full_matches_flow_on_larger_dsps(seed, target):
    g = gen_random_dsp(seed, target)
    tree = recognize_dsp(g)
    leaf_sets = _leaf_sets(tree)
    nodes = tree.nodes
    for i in range(len(nodes.kind)):
        assert tree.cap_full[i] == max_flow_value(g, nodes.s[i], nodes.t[i],
                                                  edges=leaf_sets[i])


@settings(max_examples=40, deadline=None)
@given(dsp_graphs(max_edges=14))
def test_terminal_pair_capacity_is_tree_local(g):
    # at every P node with a terminal-edge child, all paths between the
    # terminals stay inside the subtree, so the folded capacity is global
    tree = recognize_dsp(g)
    nodes = tree.nodes
    for i in range(len(nodes.kind)):
        if nodes.kind[i] == PARALLEL and nodes.kind[nodes.first[i]] == LEAF:
            assert tree.cap_full[i] == max_flow_value(g, nodes.s[i], nodes.t[i])


# sha256 of `recognize_dsp(g).dump()`, recorded before the node store was
# made flat: they pin the contraction order and the P-child order
_PINNED_DUMPS = {
    "triangle_chord": "f9455cbf408cb0031e34a99121161c947454a50b95345f9496bfef06e1206d83",
    "diamond": "f425c824831283fbed9de1e74e268d1c47bc0750d3c7ff36162d5798c9b97161",
    ("random", 1): "4105a6613a4a7aa9cb8dd87dfdf966d49d1d4d0990e9bd78f515a524ed489c17",
    ("random", 2): "f03d1bbf1117b2948318ba4f4faf862e070278f3d0e4de5973bf0819bda69b5e",
    ("random", 3): "477765bd4b7b17b9317e937ab7729d6a03d8860d26dc1add7398665dad6c21c1",
}


def test_tree_dumps_match_pinned_hashes():
    import hashlib
    fx = fixtures()
    dsp_fixtures = set()
    for name, g in fx.items():
        try:
            recognize_dsp(g)
        except NotDspError:
            continue
        dsp_fixtures.add(name)
    assert dsp_fixtures == {k for k in _PINNED_DUMPS if isinstance(k, str)}
    for key, digest in _PINNED_DUMPS.items():
        g = fx[key] if isinstance(key, str) else gen_random_dsp(key[1], 300)
        dump = recognize_dsp(g).dump()
        assert hashlib.sha256(dump.encode()).hexdigest() == digest, key


@pytest.mark.parametrize("build,paths", [
    (lambda: fixtures()["w_plus"],
     {"a->b": (0, 1), "a->c": (0, 2), "b->c": (1, 2), "b->d": (1, 3), "c->d": (2, 3)}),
    # a random DSP with one extra edge: the witness runs through contracted routes
    (lambda: DirectedGraph(32, list(gen_random_dsp(7, 40).edges) + [(0, 4)]),
     {"a->b": (0, 3), "a->c": (0, 4), "b->c": (3, 5, 4), "b->d": (3, 2), "c->d": (4, 6, 2)}),
], ids=["w_plus", "random-dsp-plus-edge"])
def test_near_miss_w_witness_paths_are_pinned(build, paths):
    g = build()
    with pytest.raises(NotDspError) as err:
        recognize_dsp(g)
    w = err.value.witness.w
    assert w is not None and w.paths == paths
    w.validate(g)


def test_a_two_cycle_is_left_as_two_routes():
    # contracting 1 would make the route (0, 0) and an S node whose two
    # children are one node, that node its own sibling
    nodes, remaining = _reduce([(0, 0, 1), (1, 1, 0)],
                               _vertex_lists(DirectedGraph(2, [(0, 1), (1, 0)])))
    assert sorted(remaining) == [(0, 1, 0), (1, 0, 1)]
    assert nodes.kind == [LEAF, LEAF] and nodes.sibling == [-1, -1]


@pytest.mark.parametrize("name", sorted(name for name, g in fixtures().items()
                                        if not g.is_acyclic()))
def test_reduction_of_a_cyclic_fixture_keeps_every_chain_finite(name):
    # `recognize` on these fixtures is pinned by tests/test_cli.py's
    # FIXTURE_STDOUT_SHA256
    nodes, remaining = _reduce_graph(fixtures()[name])
    assert all(x != y for x, y, _ in remaining)
    for i in range(len(nodes.kind)):
        seen, c = set(), nodes.first[i]
        while c >= 0:
            assert c not in seen, f"node {i}'s child chain repeats node {c}"
            seen.add(c)
            c = nodes.sibling[c]


def _assert_contract_matches_reference(g, edge_ids, lists):
    """`_contract` and `contract_reference` of one leaf per edge of
    edge_ids, in that order, make the same store column for column and
    leave the same routes; `_contract` hands `lists` back all zero."""
    want = _leaves(list(edge_ids), [g.edges[e][0] for e in edge_ids],
                   [g.edges[e][1] for e in edge_ids])
    got = NodeStore._make(col[:] for col in want)
    want_left = contract_reference(want, zip(range(len(edge_ids)), want.s[:], want.t[:]))
    left = _contract(got, dict(zip(zip(got.s, got.t), range(len(edge_ids)))), lists)
    assert got == want, "the node stores differ"
    assert sorted(left) == sorted(want_left)
    assert not any(map(any, lists)), "the lists were not handed back zero"


def _assert_reductions_match_reference(g):
    # the whole edge set, then each pair subgraph P(s, t) of two or more
    # edges, as the P1 check reduces them, all on one set of lists
    lists = _vertex_lists(g)
    _assert_contract_matches_reference(g, range(g.m), lists)
    for s in range(g.n):
        for t in range(g.n):
            if s != t and len(pair := path_induced(g, s, t)) > 1:
                _assert_contract_matches_reference(g, sorted(pair), lists)


@settings(max_examples=150, deadline=None)
@given(st.one_of(digraphs(max_n=9, max_m=14), dsp_graphs(max_edges=20),
                 lsp_graphs(max_blocks=4, block_hi=8)))
@example(DirectedGraph(2, [(0, 1), (1, 0)]))  # the 2-cycle
def test_contract_matches_the_dict_of_dicts_reference(g):
    _assert_reductions_match_reference(g)


@pytest.mark.parametrize("name", sorted(fixtures()))
def test_contract_matches_the_reference_on_every_fixture(name):
    _assert_reductions_match_reference(fixtures()[name])


def test_reducing_a_large_header_allocates_by_the_vertices_its_edges_use():
    g = DirectedGraph(1_000_000, [(0, 1), (1, 2)])
    tracemalloc.start()
    try:
        _, remaining = _reduce_graph(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert remaining == [(0, 2, 2)]
    assert peak < 1_000_000, peak

import pytest
from hypothesis import given, settings

from mcps import DirectedGraph, NotDspError, max_flow_value, recognize_dsp
from mcps.generators import fixtures, gen_random_dsp
from mcps.spdecomp import LEAF, PARALLEL, SERIES, DecompositionTree, _Node

from strategies import digraphs, dsp_graphs


def test_single_edge_is_leaf_tree():
    tree = recognize_dsp(DirectedGraph(2, [(0, 1)]))
    root = tree.nodes[tree.root]
    assert root.kind == LEAF and (root.s, root.t) == (0, 1)
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
    # cyclic > multiple-sources > multiple-sinks > w-subdivision
    if g.m == 0:
        return
    cycle = g.find_cycle()
    try:
        tree = recognize_dsp(g)
    except NotDspError as err:
        witness = err.witness
        if cycle is not None:
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


def test_edgeless_input_is_an_error():
    with pytest.raises(ValueError):
        recognize_dsp(DirectedGraph(3, []))


def test_diamond_tree_shape():
    tree = recognize_dsp(fixtures()["diamond"])
    root = tree.nodes[tree.root]
    assert root.kind == PARALLEL
    assert [tree.nodes[c].kind for c in root.children] == [SERIES, SERIES]
    assert tree.cap_full[tree.root] == 2
    tree.validate()


def test_recognition_is_deterministic():
    g = gen_random_dsp(5, 30)
    assert recognize_dsp(g).dump() == recognize_dsp(g).dump()


def test_fold_capacity():
    tree = recognize_dsp(fixtures()["diamond"])
    assert tree.fold(range(4)) == tree.cap_full
    assert all(c == 0 for c in tree.fold([]))
    # selecting the single route 0->1->3 leaves capacity 1 at the root
    assert tree.fold([0, 2])[tree.root] == 1


def _parallel_routes_graph():
    # s=0, t=1; routes 0->2->1 and 0->3->1; plus the terminal edge 0->1
    return DirectedGraph(4, [(0, 2), (2, 1), (0, 3), (3, 1), (0, 1)])


def test_recognition_puts_terminal_leaf_first():
    # the two routes and the terminal edge 0->1 form one flat P node
    g = _parallel_routes_graph()
    tree = recognize_dsp(g)
    tree.validate()
    root = tree.nodes[tree.root]
    assert root.kind == PARALLEL and len(root.children) == 3
    first = tree.nodes[root.children[0]]
    assert first.kind == LEAF and first.edge == 4
    assert [tree.nodes[c].kind for c in root.children[1:]] == [SERIES, SERIES]
    assert tree.cap_full[tree.root] == 3


def _leaf(edge, g):
    u, v = g.edges[edge]
    return _Node(LEAF, (), edge, u, v)


@pytest.mark.parametrize("p_nodes", [
    [_Node(PARALLEL, [4, 5], -1, 0, 1), _Node(PARALLEL, [7, 6], -1, 0, 1)],  # P child
    [_Node(PARALLEL, [5, 4, 6], -1, 0, 1)],                                  # late leaf
], ids=["p-child", "late-leaf"])
def test_validate_rejects_unflattened_parallel_nodes(p_nodes):
    g = _parallel_routes_graph()
    nodes = [_leaf(e, g) for e in range(5)] + [
        _Node(SERIES, (0, 1), -1, 0, 1),  # 5: route A
        _Node(SERIES, (2, 3), -1, 0, 1),  # 6: route B
    ] + p_nodes
    tree = DecompositionTree(g, nodes, len(nodes) - 1)
    assert tree.cap_full[tree.root] == 3
    with pytest.raises(AssertionError):
        tree.validate()


@settings(max_examples=40, deadline=None)
@given(dsp_graphs(max_edges=14))
def test_cap_full_matches_flow_at_every_node(g):
    tree = recognize_dsp(g)
    tree.validate()
    leaf_sets = _leaf_sets(tree)
    for i, nd in enumerate(tree.nodes):
        sub_flow = max_flow_value(g, nd.s, nd.t, edges=leaf_sets[i])
        assert tree.cap_full[i] == sub_flow


@settings(max_examples=40, deadline=None)
@given(dsp_graphs(max_edges=14))
def test_clean_tree_terminal_edge_invariant(g):
    # recognition yields a clean tree: no P node has a P child, and a P
    # node's terminal edge, when inside its subtree, is its first child
    tree = recognize_dsp(g)
    tree.validate()
    leaf_sets = _leaf_sets(tree)
    for i, nd in enumerate(tree.nodes):
        if nd.kind != PARALLEL:
            continue
        assert all(tree.nodes[c].kind != PARALLEL for c in nd.children)
        terminal_edge = g.edge_index(nd.s, nd.t)
        if terminal_edge is None or terminal_edge not in leaf_sets[i]:
            continue
        first = tree.nodes[nd.children[0]]
        assert first.kind == LEAF and first.edge == terminal_edge


def _leaf_sets(tree):
    sets = [set() for _ in tree.nodes]
    for i in tree.postorder:
        nd = tree.nodes[i]
        if nd.kind == LEAF:
            sets[i] = {nd.edge}
        else:
            sets[i] = set().union(*(sets[c] for c in nd.children))
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
    for i, nd in enumerate(tree.nodes):
        assert tree.cap_full[i] == max_flow_value(g, nd.s, nd.t, edges=leaf_sets[i])


@settings(max_examples=40, deadline=None)
@given(dsp_graphs(max_edges=14))
def test_folded_capacity_equals_flow_of_selection(g):
    import random as _random
    tree = recognize_dsp(g)
    root = tree.nodes[tree.root]
    rng = _random.Random(g.m)
    for _ in range(3):
        sel = [e for e in range(g.m) if rng.random() < 0.6]
        assert tree.fold(sel)[tree.root] == \
            max_flow_value(g, root.s, root.t, edges=sel)


@settings(max_examples=40, deadline=None)
@given(dsp_graphs(max_edges=14))
def test_terminal_pair_capacity_is_tree_local(g):
    # at every P node with a terminal-edge child, all paths between the
    # terminals stay inside the subtree, so the folded capacity is global
    tree = recognize_dsp(g)
    for i, nd in enumerate(tree.nodes):
        if nd.kind == PARALLEL and tree.nodes[nd.children[0]].kind == LEAF:
            assert tree.cap_full[i] == max_flow_value(g, nd.s, nd.t)

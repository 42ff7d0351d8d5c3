import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcps import (DirectedGraph, EdgeSet, EdgeListParseError, RetentionRatio, parse_edge_list,
                  solve_dsp, to_dot, to_edge_list)
from mcps.generators import fixtures, gen_random_dsp

from path_reference import blocks_reference
from strategies import digraphs

W_TEXT = "4 5\n0 1\n0 2\n1 3\n2 3\n1 2"


def test_parse_single_edge():
    g = parse_edge_list("2 1\n0 1")
    assert g.n == 2
    assert g.edges == ((0, 1),)


def test_parse_w_graph():
    assert parse_edge_list(W_TEXT) == fixtures()["W"]


def test_parse_comments_and_trailing_newline():
    g = parse_edge_list("# a comment\n2 1\n# another\n0 1\n")
    assert g.edges == ((0, 1),)


@pytest.mark.parametrize("text,line,needle", [
    ("2 2\n0 1\n0 1", 3, "duplicate"),
    ("2 1\n0 2", 2, "out of range"),
    ("2 1\n1 1", 2, "self-loop"),
    ("2 1\n0 1 2", 2, "two fields"),
    ("2 1\nx y", 2, "non-integer"),
    ("12 1\n0 1_0", 2, "non-integer"),
    ("3 1\n+1 2", 2, "non-integer"),
    ("3 1\n1 \u0662", 2, "non-integer"),
    ("+3 1\n1 2", 1, "non-integer"),
    ("2 2\n0 1", 1, "promises"),
])
def test_parse_errors_name_the_line(text, line, needle):
    with pytest.raises(EdgeListParseError) as err:
        parse_edge_list(text)
    assert err.value.line_no == line
    assert needle in str(err.value)


def test_constructor_rejects_bad_edges():
    with pytest.raises(ValueError):
        DirectedGraph(2, [(0, 0)])
    with pytest.raises(ValueError):
        DirectedGraph(2, [(0, 1), (0, 1)])
    with pytest.raises(ValueError):
        DirectedGraph(2, [(0, 2)])


def test_reachable_from():
    assert DirectedGraph(2, [(0, 1)]).reachable_from(0) == {0, 1}
    cycle = DirectedGraph(3, [(0, 1), (1, 2), (2, 0)])
    assert cycle.reachable_from(0) == {0, 1, 2}
    assert fixtures()["W"].reachable_from(3) == {3}
    assert fixtures()["W"].reaching(3) == {0, 1, 2, 3}
    assert fixtures()["W"].reaching(0) == {0}
    for search in (cycle.reachable_from, cycle.reaching):
        with pytest.raises(ValueError, match="vertex 3 out of range"):
            search(3)


def test_to_dot():
    g = DirectedGraph(2, [(0, 1)])
    assert to_dot(g) == "digraph {\n  0 -> 1;\n}\n"
    w = fixtures()["W"]
    dot = to_dot(w, highlight=[4])
    assert "  1 -> 2 [color=red];" in dot
    assert dot.count("[color=red]") == 1
    assert to_dot(parse_edge_list(to_edge_list(w)), highlight=[4]) == dot


def test_labels_in_dot():
    dot = to_dot(fixtures()["w_plus"])
    assert '0 [label="u"];' in dot


def test_acyclic_sources_sinks():
    w = fixtures()["W"]
    assert w.is_acyclic() and w.sources() == [0] and w.sinks() == [3]
    cycle = DirectedGraph(3, [(0, 1), (1, 2), (2, 0)])
    assert not cycle.is_acyclic() and cycle.sources() == []
    edgeless = DirectedGraph(2, [])
    assert edgeless.is_acyclic() and edgeless.sources() == [0, 1]


def test_edge_set_semantics():
    es = EdgeSet([3, 1, 1], 5)
    assert len(es) == 2 and list(es) == [1, 3]
    assert es == EdgeSet([1, 3], 5)
    with pytest.raises(ValueError):
        EdgeSet([5], 5)


def test_edge_set_names_its_smallest_out_of_range_index():
    with pytest.raises(ValueError, match=r"^edge index -1 out of range for m=5$"):
        EdgeSet([7, -1, 9], 5)
    with pytest.raises(ValueError, match=r"^edge index 6 out of range for m=5$"):
        EdgeSet([9, 2, 6, 7], 5)
    assert EdgeSet([], 0) == EdgeSet(range(0), 0)


def test_constructor_rejects_non_integer_vertex_ids():
    # int() would truncate 0.5 to vertex 0 and build the edge (0, 1)
    with pytest.raises(TypeError):
        DirectedGraph(3, [(0.5, 1), (1, 2)])
    with pytest.raises(TypeError):
        DirectedGraph(3, [("0", 1)])


def test_constructor_rejects_a_non_integer_vertex_count():
    # a float or string n would fail later, inside sources() or solve()
    with pytest.raises(TypeError):
        DirectedGraph(3.0, [(0, 1), (1, 2)])
    with pytest.raises(TypeError):
        DirectedGraph("3", [(0, 1), (1, 2)])
    assert DirectedGraph(True, []).n == 1  # bool is an int subtype


def test_edge_set_rejects_non_integer_indices():
    # int() would read [1.9, True] as the single index 1
    with pytest.raises(TypeError):
        EdgeSet([1.9, True], 3)
    with pytest.raises(TypeError):
        EdgeSet(["1"], 3)
    assert EdgeSet([True], 3) == EdgeSet([1], 3)  # bool is an int subtype


def test_find_cycle_walks_back_from_the_smallest_vertex_left():
    # Kahn's pass orders nothing; the walk from 0 steps back 0 <- 1 <- 3 <- 2 <- 1
    # and reports the cycle from 1, where it closed, in edge direction
    g = DirectedGraph(4, [(1, 0), (1, 2), (2, 3), (3, 1)])
    assert g.find_cycle() == [1, 2, 3]
    assert DirectedGraph(3, [(0, 1), (1, 2)]).find_cycle() is None


@settings(max_examples=300)
@given(digraphs(max_n=7, max_m=14))
def test_find_cycle_is_a_simple_cycle_exactly_when_cyclic(g):
    cycle = g.find_cycle()
    assert (cycle is None) == g.is_acyclic()
    if cycle is not None:
        assert len(cycle) == len(set(cycle)) >= 2
        assert all(g.has_edge(u, v) for u, v in zip(cycle, cycle[1:] + cycle[:1]))


@settings(max_examples=80)
@given(digraphs())
def test_parse_serialize_round_trip(g):
    assert parse_edge_list(to_edge_list(g)) == g


@settings(max_examples=60)
@given(digraphs(max_n=5, max_m=8))
def test_reachability_monotone_under_edge_addition(g):
    missing = [(u, v) for u in range(g.n) for v in range(g.n)
               if u != v and not g.has_edge(u, v)]
    if not missing:
        return
    bigger = DirectedGraph(g.n, list(g.edges) + [missing[0]])
    for v in range(g.n):
        assert g.reachable_from(v) <= bigger.reachable_from(v)


@settings(max_examples=80)
@given(digraphs(), st.data())
def test_constructor_matches_a_reference_built_from_the_edge_list(g, data):
    order = data.draw(st.permutations(range(g.m)))
    edges = [g.edges[i] for i in order]
    for given_edges in (edges, (e for e in edges)):  # a list, then a one-shot generator
        built = DirectedGraph(g.n, given_edges)
        assert built.edges == tuple(edges)
        for v in range(g.n):
            assert built.out_edges(v) == [(i, y) for i, (x, y) in enumerate(edges) if x == v]
            assert built.in_edges(v) == [(i, x) for i, (x, y) in enumerate(edges) if y == v]
            for u in range(g.n):
                want = edges.index((u, v)) if (u, v) in edges else None
                assert built.edge_index(u, v) == want
                assert built.has_edge(u, v) == (want is not None)


def _two_pass_parse_error(text):
    """The edge checks of an edge-list parser that validates every edge in
    its own loop before building the graph: the error it raises, or None."""
    header = None
    edges, edge_lines = [], []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        a, b = map(int, line.split())
        if header is None:
            header = (a, b)
            continue
        edges.append((a, b))
        edge_lines.append(line_no)
    n = header[0]
    seen = {}
    for (u, v), line_no in zip(edges, edge_lines):
        if not (0 <= u < n and 0 <= v < n):
            return EdgeListParseError(line_no, f"vertex id out of range 0..{n - 1}")
        if u == v:
            return EdgeListParseError(line_no, f"self-loop at {u}")
        if (u, v) in seen:
            return EdgeListParseError(line_no,
                                      f"duplicate edge ({u}, {v}), first on line {seen[u, v]}")
        seen[(u, v)] = line_no
    return None


@st.composite
def edge_lists_with_one_bad_edge(draw):
    """Edge-list text with comments and blank lines, holding one edge that is
    out of range, a self-loop or a duplicate (adjacent to its original or not)."""
    g = draw(digraphs(max_n=6, max_m=10))
    edges = list(g.edges)
    kind = draw(st.sampled_from(["range", "self-loop", "duplicate"]))
    if kind == "duplicate" and not edges:
        kind = "self-loop"
    if kind == "range":
        ids = st.integers(-3, g.n + 3)
        bad = draw(st.tuples(ids, ids).filter(lambda e: not (0 <= min(e) and max(e) < g.n)))
    elif kind == "self-loop":
        u = draw(st.integers(0, g.n - 1))
        bad = (u, u)
    else:
        bad = draw(st.sampled_from(edges))
    edges.insert(draw(st.integers(0, len(edges))), bad)
    lines = [f"{g.n} {len(edges)}"] + [f"{u} {v}" for u, v in edges]
    noise = st.sampled_from(["", "   ", "# a comment", "  # 0 1", "\t"])
    for _ in range(draw(st.integers(0, 6))):
        lines.insert(draw(st.integers(0, len(lines))), draw(noise))
    return "\n".join(lines)


@settings(max_examples=150)
@given(edge_lists_with_one_bad_edge())
def test_parse_reports_edge_errors_like_the_two_pass_validator(text):
    want = _two_pass_parse_error(text)
    assert want is not None
    with pytest.raises(EdgeListParseError) as err:
        parse_edge_list(text)
    assert err.value.line_no == want.line_no
    assert str(err.value) == str(want)


@settings(max_examples=200, deadline=None)
@given(digraphs(max_n=7, max_m=12))
def test_blocks_match_the_cycle_definition(g):
    blocks = g.blocks()
    assert sorted(e for block in blocks for e in block) == list(range(g.m))
    assert all(list(block) == sorted(set(block)) for block in blocks)
    assert [block[0] for block in blocks] == sorted(block[0] for block in blocks)
    assert blocks == blocks_reference(g)


def test_blocks_of_fixtures():
    # block_chain: a diamond, the 2-cycle 3 <-> 4, a triangle, the bridge
    # 6 -> 7 and the directed triangle 0 -> 8 -> 9 -> 0
    assert fixtures()["block_chain"].blocks() == [
        (0, 1, 2, 3), (4, 5), (6, 7, 8), (9,), (10, 11, 12)]
    assert fixtures()["bidirected_K4"].blocks() == [tuple(range(12))]
    # isolated vertices belong to no block
    assert DirectedGraph(5, [(3, 1), (1, 4)]).blocks() == [(0,), (1,)]


# --- adjacency lists built on first use --------------------------------------

@pytest.mark.parametrize("seed", [1, 2, 3])
def test_solve_dsp_never_builds_the_adjacency_lists(seed):
    g = parse_edge_list(to_edge_list(gen_random_dsp(seed, 200)))
    solve_dsp(g, RetentionRatio(1, 2))
    assert not hasattr(g, "_out") and not hasattr(g, "_in")


def _topological_order_reference(g):
    """Kahn's order by definition: the smallest vertex with no in-edge from a
    vertex left, again and again; returns the order and the vertices left."""
    left, order = set(range(g.n)), []
    while left:
        free = [v for v in left if not any(u in left for u, w in g.edges if w == v)]
        if not free:
            break
        order.append(min(free))
        left.remove(order[-1])
    return order, left


def _find_cycle_reference(left, edges):
    # back from the smallest vertex left, along the first in-edge from a vertex left
    v, walk = min(left), []
    while v not in walk:
        walk.append(v)
        v = next(u for u, w in edges if w == v and u in left)
    walk.append(v)
    return walk[:walk.index(v):-1]


def _twins(g):
    """Ways to come by a graph equal to g: built fresh, with its lists built
    first, and pickled or deep-copied before any build."""
    built = DirectedGraph(g.n, g.edges)
    built._adjacency()

    def unbuilt(copier):
        twin = copier(DirectedGraph(g.n, g.edges))
        assert not hasattr(twin, "_out") and not hasattr(twin, "_in")
        return twin

    return {"fresh": lambda: DirectedGraph(g.n, g.edges),
            "built": lambda: built,
            "pickled": lambda: unbuilt(lambda x: pickle.loads(pickle.dumps(x))),
            "deep-copied": lambda: unbuilt(copy.deepcopy)}


@settings(max_examples=100, deadline=None)
@given(digraphs(max_n=7, max_m=12))
def test_lazy_adjacency_matches_references_from_the_edges(g):
    # every query starts from its own copy, so each one may be the first
    # to build the lists
    edges = g.edges
    out = [[(i, w) for i, (u, w) in enumerate(edges) if u == v] for v in range(g.n)]
    inc = [[(i, u) for i, (u, w) in enumerate(edges) if w == v] for v in range(g.n)]
    order, left = _topological_order_reference(g)
    queries = {
        "out_edges": (lambda h: [h.out_edges(v) for v in range(g.n)], out),
        "in_edges": (lambda h: [h.in_edges(v) for v in range(g.n)], inc),
        "out_degree": (lambda h: [h.out_degree(v) for v in range(g.n)], list(map(len, out))),
        "in_degree": (lambda h: [h.in_degree(v) for v in range(g.n)], list(map(len, inc))),
        "sources": (DirectedGraph.sources, [v for v in range(g.n) if not inc[v]]),
        "sinks": (DirectedGraph.sinks, [v for v in range(g.n) if not out[v]]),
        "topological_order": (DirectedGraph.topological_order, None if left else order),
        "find_cycle": (DirectedGraph.find_cycle,
                       _find_cycle_reference(left, edges) if left else None),
        "blocks": (DirectedGraph.blocks, blocks_reference(g)),
    }
    for how, make in _twins(g).items():
        for name, (query, want) in queries.items():
            assert query(make()) == want, (how, name)

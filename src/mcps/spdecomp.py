"""Two-terminal series-parallel recognition, decomposition trees and
capacity folding.

Recognition works by exhaustive series/parallel reduction (`_contract`) on a
workspace of routes over the original vertex ids: one dict from (tail, head)
to the route's tree node, and four flat lists indexed by vertex id holding
each vertex's in- and out-degree and the sums of its in-route tails and
out-route heads, so a vertex of degree 1 names its one neighbour by the sum.
Inner vertices with in-degree = out-degree = 1 are contracted (series),
parallel routes are merged on creation (parallel), each step recording a
tree node. Parallel nodes are n-ary, as in Valdes, Tarjan and Lawler's
recognition: a merge into a pair that already has a P node appends to it, so
a terminal edge of a parallel composition is a leaf child of its P node. The
reduction system is confluent on acyclic single-source single-sink graphs,
so getting stuck proves the graph is not series-parallel; the stuck core is
then handed to the W-subdivision search for a best-effort witness.

The tree has no object per node: a reduction fills a `NodeStore` of
parallel int lists, with children chained by sibling links, and the tree,
the DSP fold (`_fold`) and the witness expansion read it. Only this module
knows that layout.

Only vertices with in-degree = out-degree = 1 are contracted, so a source
(in-degree 0) or a sink (out-degree 0) of the input is never eligible for a
series step, and no step makes it eligible: a series step at v replaces the
routes (x, v) and (v, y) by one route (x, y), merged into an existing (x, y)
if there is one, so only x's out-degree and y's in-degree can change, and
they can only fall. The terminals of a two-terminal input and every source
and sink of a DAG thus stay in place without being named. The reduction is
confluent on an acyclic workspace (Valdes, Tarjan and Lawler, 1982): a
degree falls only through a merge, which needs two routes from x and two
into y, so every other eligible vertex stays eligible, and contracting two
eligible vertices in either order leaves the same routes. Every order of
steps therefore ends in the same routes.

No cycle search runs before the reduction. A series step turns a cycle
through the contracted vertex into a shorter one, but never a 2-cycle into a
self-loop, and a parallel merge keeps a route between the merged pair, so no
step removes a cycle or leaves it one route; and the source s and the sink t
lie on none. A reduction that ends in a single route (s, t) therefore proves
the input acyclic, and the cycle search runs only to say why a graph is
rejected. On any input, cyclic or not, each route left is a DSP on two
distinct vertices whose interior vertices have no other edge, so the whole
graph's reduction is the LSP steps' shared store (`lsp._core`); the loop
also decides the P1 check's path-induced subgraphs and contracts each MEAS
block's routes in a copy of that store, so one fold covers every block.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, NamedTuple, Optional

from .errors import BudgetExceededError, NotDspError
from .flow import RetentionRatio
from .graphs import DirectedGraph
from . import _wsearch

LEAF = 0
SERIES = 1
PARALLEL = 2

_KIND_NAMES = {LEAF: "leaf", SERIES: "series", PARALLEL: "parallel"}


class NodeStore(NamedTuple):
    """The nodes of one reduction as parallel lists indexed by node id:
    first the leaves, one per input route, whose host edge ids are `edge`,
    then the S and P nodes. `s` and `t` are every node's terminals. A
    node's children are `first`, then the `sibling` links from it, -1
    ending the chain at `second`, the last child (an S node's two are in
    path order); a leaf's `first` is -1."""

    kind: list[int]
    edge: list[int]
    s: list[int]
    t: list[int]
    first: list[int]
    second: list[int]
    sibling: list[int]


@dataclass
class NotDspWitness:
    """Why a graph is not a two-terminal series-parallel digraph.

    For reason "w-subdivision", `w` holds the embedded subdivision of the
    forbidden graph W when extraction stayed within budget (best effort).
    """

    reason: str  # "no-edges" | "cyclic" | "multiple-sources" | "multiple-sinks" | "w-subdivision"
    cycle: Optional[tuple[int, ...]] = None
    sources: Optional[tuple[int, ...]] = None
    sinks: Optional[tuple[int, ...]] = None
    w: Optional[_wsearch.WSubdivision] = None


class DecompositionTree:
    """S/P-composition tree of a two-terminal DSP, over the node store of
    the reduction that recognized it (see `NodeStore`).

    Leaves biject with the host graph's edges. S nodes have two children, in
    path order; P nodes have two or more, none of them a P node, and the
    only leaf a P node can have is its first child: the edge joining its
    terminals. `postorder` and `cap_full` are computed on first use:
    `cap_full[i]` is the max-flow value of node i's subgraph between its
    terminals (leaf 1, series min, parallel sum), as `_fold` computes it.
    """

    def __init__(self, graph: DirectedGraph, nodes: NodeStore, root: int):
        self.graph = graph
        self.nodes = nodes
        self.root = root

    @cached_property
    def postorder(self) -> list[int]:
        return _postorder(self.nodes, self.root)

    @cached_property
    def cap_full(self) -> list[int]:
        # the full capacities do not depend on the retention ratio
        return _fold(self.nodes, (self.root,), RetentionRatio(1, 2))[0]

    def children(self, i: int) -> list[int]:
        """Node i's children in order (empty for a leaf)."""
        out, c = [], self.nodes.first[i]
        while c >= 0:
            out.append(c)
            c = self.nodes.sibling[c]
        return out

    def terminals(self) -> tuple[int, int]:
        return (self.nodes.s[self.root], self.nodes.t[self.root])

    def validate(self) -> None:
        """Check structural invariants; raises AssertionError on violation."""
        kind, edge, s, t = self.nodes.kind, self.nodes.edge, self.nodes.s, self.nodes.t
        seen_edges = []
        for i in self.postorder:
            ch = self.children(i)
            if kind[i] == LEAF:
                assert not ch, f"leaf {i} has children"
                assert (s[i], t[i]) == self.graph.edges[edge[i]], \
                    f"leaf {i} terminals mismatch"
                seen_edges.append(edge[i])
                continue
            assert ch and self.nodes.second[i] == ch[-1], \
                f"node {i}'s second is not its last child"
            if kind[i] == SERIES:
                assert len(ch) == 2, f"series node {i} is not binary"
                l, r = ch
                assert s[l] == s[i] and t[r] == t[i] and t[l] == s[r], \
                    f"series node {i} terminal chain broken"
            else:
                assert len(ch) >= 2, f"parallel node {i} has one child"
                for k, c in enumerate(ch):
                    assert (s[c], t[c]) == (s[i], t[i]), \
                        f"parallel node {i} terminals mismatch"
                    assert kind[c] != PARALLEL, f"parallel node {i} has a P child"
                    assert kind[c] != LEAF or k == 0, \
                        f"parallel node {i} has a leaf after its first child"
        assert sorted(seen_edges) == list(range(self.graph.m)), \
            "leaves do not biject with graph edges"

    def dump(self) -> str:
        """Indented text rendering (node kind, terminals, full capacity)."""
        kind, s, t = self.nodes.kind, self.nodes.s, self.nodes.t
        cap = self.cap_full
        lines = []
        stack: list[tuple[int, int]] = [(self.root, 0)]
        while stack:
            i, depth = stack.pop()
            pad = "  " * depth
            if kind[i] == LEAF:
                lines.append(f"{pad}leaf e{self.nodes.edge[i]} ({s[i]},{t[i]}) cap={cap[i]}")
            else:
                lines.append(f"{pad}{_KIND_NAMES[kind[i]]} ({s[i]},{t[i]}) cap={cap[i]}")
                for c in reversed(self.children(i)):
                    stack.append((c, depth + 1))
        return "\n".join(lines) + "\n"


def _postorder(nodes: NodeStore, root: int) -> list[int]:
    # a preorder that visits children last to first, reversed, is the
    # postorder that visits them first to last
    first, sibling = nodes.first, nodes.sibling
    order = []
    stack = [root]
    while stack:
        i = stack.pop()
        order.append(i)
        c = first[i]
        while c >= 0:
            stack.append(c)
            c = sibling[c]
    order.reverse()
    return order


def _leaf_edges(nodes: NodeStore, i: int) -> list[int]:
    """The host edge ids of the leaves under node i."""
    leaves = len(nodes.edge)  # the leaves are nodes 0 .. leaves - 1
    return [nodes.edge[j] for j in _postorder(nodes, i) if j < leaves]


def _fold(nodes: NodeStore, roots: Iterable[int], alpha: RetentionRatio
          ) -> tuple[list[int], set[int], int]:
    """The DSP fold of a store that is a forest of trees rooted at `roots`,
    every leaf under one of them, as the routes left by a reduction are:
    (full capacity per node, kept leaf edges, MED size).

    One bottom-up pass computes each node's full capacity and its capacity
    in the selection so far; at each P node whose first child is the leaf
    of its terminal edge, that edge is dropped if the other children
    already give the required capacity. Exactly those edges have another
    path between their endpoints: the MED leaves them out.

    The pass walks the store in creation order, with no postorder list. An
    S node's children are made before it, so they are done when it is
    reached; a P node gains children after it is made, so it is folded from
    its chain when its S parent is reached, or after the pass if it is a
    root, by which time its chain is complete. A P node under a P node,
    which only a hand-built store has, is folded when its parent is."""
    kind, edge, first, second, sibling = (
        nodes.kind, nodes.edge, nodes.first, nodes.second, nodes.sibling)
    required = alpha.required
    full = [1] * len(kind)
    cur = [1] * len(kind)
    kept = set(edge)
    med_size = len(edge)

    def close(i: int) -> None:
        nonlocal med_size
        head = first[i]
        f = cap = 0
        c = head
        while c >= 0:
            if kind[c] == PARALLEL:
                close(c)
            f += full[c]
            cap += cur[c]
            c = sibling[c]
        if kind[head] == LEAF:
            med_size -= 1
            if cap - 1 >= required(f):  # the other children suffice without the edge
                kept.discard(edge[head])
                cap -= 1
        full[i] = f
        cur[i] = cap

    for i in range(len(edge), len(kind)):
        if kind[i] == SERIES:
            a, b = first[i], second[i]
            if kind[a] == PARALLEL:
                close(a)
            if kind[b] == PARALLEL:
                close(b)
            x, y = full[a], full[b]
            full[i] = x if x < y else y
            x, y = cur[a], cur[b]
            cur[i] = x if x < y else y
    for root in roots:
        if kind[root] == PARALLEL:
            close(root)
    return full, kept, med_size


def _leaves(edge: list[int], s: list[int], t: list[int]) -> NodeStore:
    """A store of bare leaves: leaf i is host edge edge[i], from s[i] to t[i]."""
    m = len(edge)
    return NodeStore([LEAF] * m, edge, s, t, [-1] * m, [-1] * m, [-1] * m)


def _vertex_lists(graph: DirectedGraph) -> list[list[int]]:
    """`_contract`'s four lists, all zero, for the vertex ids the graph's
    edges use: they span the largest of them, not the header's n."""
    size = 1 + max(chain.from_iterable(graph.edges), default=-1)
    return [[0] * size for _ in range(4)]


def _contract(nodes: NodeStore, routes: dict[tuple[int, int], int],
              lists: list[list[int]]) -> list[tuple[int, int, int]]:
    """Series-parallel reduction of `routes`, a dict from (tail, head) to a
    node id of `nodes`, which gains the S and P nodes in creation order;
    returns the routes left when no step applies, as (tail, head, node id)
    in the dict's order.

    The workspace is `routes` itself, which the reduction consumes, and
    `lists`: the in-degree, the out-degree, the sum of the in-route tails
    and the sum of the out-route heads of each vertex, indexed by vertex id
    and all zero on entry. Every step keeps them equal to the degrees and
    sums over the routes in the dict, so a vertex of in-degree 1 has its one
    in-neighbour as its tail sum, and likewise out: a series step finds its
    two routes with two dict lookups. The lists are handed back all zero, so
    a caller can reuse one set for many reductions.

    A series step contracts a vertex with one route in and one out, from and
    to two distinct vertices, and a parallel merge joins a new route to the
    route with its tail and head; sources and sinks of the routes are never
    contracted (see the module docstring). Contraction picks the lowest
    eligible vertex id first. A merge links the newer route after the last
    child of the older route's P node, made on the first merge unless the
    older route's node is a P node already, so a route's P node keeps its
    first child. The result is deterministic; by confluence the routes left,
    though not the tree, are the same in any order on acyclic inputs.
    """
    kind, s, t, first, second, sibling = (
        nodes.kind, nodes.s, nodes.t, nodes.first, nodes.second, nodes.sibling)
    indeg, outdeg, tails, heads = lists
    for x, y in routes:
        outdeg[x] += 1
        heads[x] += y
        indeg[y] += 1
        tails[y] += x

    heap = [y for _, y in routes if indeg[y] == 1 and outdeg[y] == 1]
    heapq.heapify(heap)
    heappop, heappush = heapq.heappop, heapq.heappush
    pop, setdefault = routes.pop, routes.setdefault
    while heap:
        v = heappop(heap)
        if indeg[v] != 1 or outdeg[v] != 1:
            continue
        x, y = tails[v], heads[v]
        if x == y:  # a 2-cycle x <-> v, which a step would turn into the self-loop (x, x)
            continue
        a = pop((x, v))
        b = pop((v, y))
        indeg[v] = outdeg[v] = tails[v] = heads[v] = 0
        new = len(kind)
        kind.append(SERIES)
        s.append(x)
        t.append(y)
        first.append(a)
        second.append(b)
        sibling.append(-1)
        sibling[a] = b
        old = setdefault((x, y), new)
        if old == new:
            heads[x] += y - v
            tails[y] += x - v
            continue
        outdeg[x] -= 1
        heads[x] -= v
        indeg[y] -= 1
        tails[y] -= v
        if kind[old] == PARALLEL:
            sibling[second[old]] = new
            second[old] = new
        else:
            routes[x, y] = new + 1
            kind.append(PARALLEL)
            s.append(x)
            t.append(y)
            first.append(old)
            second.append(new)
            sibling.append(-1)
            sibling[old] = new
        for w in (x, y):
            if indeg[w] == 1 and outdeg[w] == 1:
                heappush(heap, w)

    left = [(x, y, i) for (x, y), i in routes.items()]
    for x, y, _ in left:
        outdeg[x] = heads[x] = indeg[y] = tails[y] = 0
    return left


def _reduce(triples: Iterable[tuple[int, int, int]], lists: list[list[int]]
            ) -> tuple[NodeStore, list[tuple[int, int, int]]]:
    """`_contract` of one leaf per (edge id, tail, head) triple, in triple
    order, on `lists` (see `_contract`), which span every vertex id of the
    triples: the node store and the routes left. An input whose only source
    is s and only sink is t is a DSP with terminals s and t iff exactly one
    route remains and it is (s, t); its node is then the root."""
    edge: list[int] = []
    s: list[int] = []
    t: list[int] = []
    for e, u, v in triples:
        edge.append(e)
        s.append(u)
        t.append(v)
    routes = dict(zip(zip(s, t), range(len(edge))))
    nodes = _leaves(edge, s, t)
    return nodes, _contract(nodes, routes, lists)


def _reduce_graph(graph: DirectedGraph) -> tuple[NodeStore, list[tuple[int, int, int]]]:
    """`_reduce` of the graph's whole edge set (leaf i is edge i), run once
    and cached on the graph for `recognize_dsp` and the LSP checks."""
    if "reduction" not in graph._cache:
        edges = graph.edges
        nodes = _leaves(list(range(len(edges))), [u for u, _ in edges], [v for _, v in edges])
        routes = dict(graph._edge_index)  # edge i's (tail, head) -> i, leaf i
        graph._cache["reduction"] = nodes, _contract(nodes, routes, _vertex_lists(graph))
    return graph._cache["reduction"]


def _dsp_root(remaining: list[tuple[int, int, int]], s: int, t: int) -> Optional[int]:
    """The root of a reduction of edges with s their only source and t their
    only sink if they form a DSP on (s, t), which is when one route is left
    and it joins s to t (a cycle never reduces to one route), else None."""
    if len(remaining) == 1 and remaining[0][:2] == (s, t):
        return remaining[0][2]
    return None


def recognize_dsp(graph: DirectedGraph) -> DecompositionTree:
    """Decompose a two-terminal series-parallel digraph, or raise NotDspError.

    The tree is deterministic (see `_contract`). The graph is a DSP on
    (s, t) iff its reduction leaves the one route (s, t) after n - 2 series
    steps: a contracted vertex has an edge in and one out, and a route into
    s or out of t would outlast every step, so s is the only source, t the
    only sink and no vertex is isolated; the reduction proves such a graph
    acyclic (see the module docstring). A rejection reports
    the first reason that applies, in the order: no edges, a cycle
    (`find_cycle`'s), several sources, several sinks, then a W-subdivision.
    """
    if graph.m == 0:
        raise NotDspError(NotDspWitness("no-edges"))
    nodes, remaining = _reduce_graph(graph)
    if len(remaining) == 1 and nodes.kind.count(SERIES) == graph.n - 2:
        return DecompositionTree(graph, nodes, remaining[0][2])
    srcs = graph.sources()
    snks = graph.sinks()
    cycle = graph.find_cycle()
    if cycle is not None:
        raise NotDspError(NotDspWitness("cyclic", cycle=tuple(cycle)))
    if len(srcs) != 1:
        raise NotDspError(NotDspWitness("multiple-sources", sources=tuple(srcs)))
    if len(snks) != 1:
        raise NotDspError(NotDspWitness("multiple-sinks", sinks=tuple(snks)))
    w = _extract_core_witness(graph, remaining, nodes)
    raise NotDspError(NotDspWitness("w-subdivision", w=w))


def _route_path(nodes: NodeStore, i: int) -> list[int]:
    """The vertices after the tail of one path through node i's subgraph:
    the path takes a P node's first child and both children of an S node."""
    kind, t, first, second = nodes.kind, nodes.t, nodes.first, nodes.second
    path, stack = [], [i]
    while stack:
        j = stack.pop()
        if kind[j] == LEAF:
            path.append(t[j])
        elif kind[j] == PARALLEL:
            stack.append(first[j])
        else:
            stack.append(second[j])
            stack.append(first[j])
    return path


def _extract_core_witness(graph, remaining, nodes):
    """Search the stuck reduction core for a W-subdivision, then expand each
    core edge back to a path of the original graph. Interior vertices of
    distinct core edges are disjoint by construction, so the expansion is a
    valid subdivision. Returns None when the search exceeds its budget."""
    node_of = {(x, y): i for x, y, i in remaining}
    try:
        core = DirectedGraph(graph.n, sorted(node_of))
        found = _wsearch.find_w_subdivision_graph(core)
    except BudgetExceededError:
        return None
    if found is None:
        return None
    expanded = {}
    for key, path in found.paths.items():
        full = [path[0]]
        for x, y in zip(path, path[1:]):
            full.extend(_route_path(nodes, node_of[(x, y)]))
        expanded[key] = tuple(full)
    return _wsearch.WSubdivision(branch=found.branch, paths=expanded)


def make_clean(tree: DecompositionTree) -> DecompositionTree:
    """Identity: `recognize_dsp` already puts each terminal edge directly under
    its P node. Kept only because the benchmark tracer (perfbench/tracing.py)
    looks this name up; remove it together with that entry."""
    return tree

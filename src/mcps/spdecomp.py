"""Two-terminal series-parallel recognition, decomposition trees and
capacity folding.

Recognition works by exhaustive series/parallel reduction (`_reduce`) on a
multigraph workspace of routes over the original vertex ids: inner vertices
with in-degree = out-degree = 1 are contracted (series), parallel routes are
merged on creation (parallel), each step recording a tree node. Parallel
nodes are n-ary, as in Valdes, Tarjan and Lawler's recognition: a merge into
a pair that already has a P node appends to it, so a terminal edge of a
parallel composition is a leaf child of its P node. The reduction system is
confluent on acyclic single-source single-sink graphs, so getting stuck
proves the graph is not series-parallel; the stuck core is then handed to
the W-subdivision search for a best-effort witness.

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
through the contracted vertex into a shorter cycle (a self-loop at worst),
and a parallel merge keeps a route between the merged pair, so no step
removes a cycle; and the source s and the sink t lie on none. A reduction
that ends in the single route (s, t) therefore proves the input acyclic, and
the cycle search runs only to say why a graph is rejected. The same kernel
decides the path-induced subgraphs of the P1 check and reduces the blocks of
the LSP solver, without building a graph or a tree object for them.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

from .errors import BudgetExceededError, NotDspError
from .graphs import DirectedGraph, EdgeSet
from . import _wsearch

LEAF = 0
SERIES = 1
PARALLEL = 2

_KIND_NAMES = {LEAF: "leaf", SERIES: "series", PARALLEL: "parallel"}


class _Node:
    # children: () for a leaf, (first, second) in path order for an S node,
    # and a list for a P node, since later parallel merges append to it
    __slots__ = ("kind", "children", "edge", "s", "t")

    def __init__(self, kind, children, edge, s, t):
        self.kind = kind
        self.children = children
        self.edge = edge
        self.s = s
        self.t = t


@dataclass
class NotDspWitness:
    """Why a graph is not a two-terminal series-parallel digraph.

    For reason "w-subdivision", `w` holds the embedded subdivision of the
    forbidden graph W when extraction stayed within budget (best effort).
    """

    reason: str  # "cyclic" | "multiple-sources" | "multiple-sinks" | "w-subdivision"
    cycle: Optional[tuple[int, ...]] = None
    sources: Optional[tuple[int, ...]] = None
    sinks: Optional[tuple[int, ...]] = None
    w: Optional[_wsearch.WSubdivision] = None


class DecompositionTree:
    """S/P-composition tree of a two-terminal DSP.

    Leaves biject with the host graph's edges. S nodes have two children, in
    path order; P nodes have two or more, none of them a P node, and the
    only leaf a P node can have is `children[0]`: the edge joining its
    terminals. Every node carries its terminal pair. `postorder` and
    `cap_full` are computed on first use: `cap_full[i]` is the max-flow
    value of node i's subgraph between its terminals (leaf 1, series min,
    parallel sum).
    """

    def __init__(self, graph: DirectedGraph, nodes: list[_Node], root: int):
        self.graph = graph
        self.nodes = nodes
        self.root = root

    @cached_property
    def postorder(self) -> list[int]:
        return _postorder(self.nodes, self.root)

    @cached_property
    def cap_full(self) -> list[int]:
        return self.fold(range(self.graph.m))

    def fold(self, selected: "EdgeSet | Iterable[int]") -> list[int]:
        """Per-node capacity using only the selected leaf edges.

        Leaf: 1 if selected else 0; series: min of children; parallel: sum.
        Returns a fresh annotation list indexed by node id.
        """
        if isinstance(selected, EdgeSet):
            chosen = selected.indices
        else:
            chosen = set(selected)
        cap = [0] * len(self.nodes)
        for i in self.postorder:
            nd = self.nodes[i]
            if nd.kind == LEAF:
                cap[i] = 1 if nd.edge in chosen else 0
            elif nd.kind == SERIES:
                a, b = nd.children
                cap[i] = min(cap[a], cap[b])
            else:
                cap[i] = sum([cap[c] for c in nd.children])
        return cap

    def terminals(self) -> tuple[int, int]:
        root = self.nodes[self.root]
        return (root.s, root.t)

    def validate(self) -> None:
        """Check structural invariants; raises AssertionError on violation."""
        seen_edges = []
        for i in self.postorder:
            nd = self.nodes[i]
            if nd.kind == LEAF:
                u, v = self.graph.edges[nd.edge]
                assert (nd.s, nd.t) == (u, v), f"leaf {i} terminals mismatch"
                seen_edges.append(nd.edge)
            elif nd.kind == SERIES:
                assert len(nd.children) == 2, f"series node {i} is not binary"
                l, r = (self.nodes[c] for c in nd.children)
                assert l.s == nd.s and r.t == nd.t and l.t == r.s, \
                    f"series node {i} terminal chain broken"
            else:
                assert len(nd.children) >= 2, f"parallel node {i} has one child"
                for k, c in enumerate(nd.children):
                    ch = self.nodes[c]
                    assert (ch.s, ch.t) == (nd.s, nd.t), \
                        f"parallel node {i} terminals mismatch"
                    assert ch.kind != PARALLEL, f"parallel node {i} has a P child"
                    assert ch.kind != LEAF or k == 0, \
                        f"parallel node {i} has a leaf after its first child"
        assert sorted(seen_edges) == list(range(self.graph.m)), \
            "leaves do not biject with graph edges"

    def dump(self) -> str:
        """Indented text rendering (node kind, terminals, full capacity)."""
        lines = []
        stack: list[tuple[int, int]] = [(self.root, 0)]
        while stack:
            i, depth = stack.pop()
            nd = self.nodes[i]
            pad = "  " * depth
            if nd.kind == LEAF:
                lines.append(f"{pad}leaf e{nd.edge} ({nd.s},{nd.t}) cap={self.cap_full[i]}")
            else:
                lines.append(f"{pad}{_KIND_NAMES[nd.kind]} ({nd.s},{nd.t}) cap={self.cap_full[i]}")
                for c in reversed(nd.children):
                    stack.append((c, depth + 1))
        return "\n".join(lines) + "\n"


def _postorder(nodes: list[_Node], root: int) -> list[int]:
    # a preorder that visits children last to first, reversed, is the
    # postorder that visits them first to last
    order = []
    stack = [root]
    while stack:
        i = stack.pop()
        order.append(i)
        stack.extend(nodes[i].children)
    order.reverse()
    return order


def _reduce(triples: Iterable[tuple[int, int, int]]
            ) -> tuple[list[_Node], list[tuple[int, int, int]]]:
    """Series-parallel reduction of the routes given as (edge id, tail, head).

    A series step contracts a vertex with in- and out-degree 1, and a
    parallel merge joins a new route to the routes with its tail and head;
    sources and sinks of the input are never contracted (see the module
    docstring). Returns the tree nodes (one leaf per triple, in triple
    order, then the S and P nodes in creation order) and the routes left
    when no step applies, as (tail, head, node index). An input whose only
    source is s and only sink is t is a DSP with terminals s and t iff
    exactly one route remains and it is (s, t); its node is then the root.
    Contraction picks the lowest eligible vertex id first and a parallel
    merge appends the newer route after the older ones, so the result is
    deterministic; by confluence the routes left, though not the tree, are
    the same in any order on acyclic inputs.
    """
    nodes: list[_Node] = []
    out: defaultdict[int, dict[int, int]] = defaultdict(dict)
    inn: defaultdict[int, dict[int, int]] = defaultdict(dict)
    for eid, u, v in triples:
        out[u][v] = inn[v][u] = len(nodes)
        nodes.append(_Node(LEAF, (), eid, u, v))

    heap = [v for v, succ in out.items()
            if len(succ) == 1 and len(inn[v]) == 1]
    heapq.heapify(heap)
    while heap:
        v = heapq.heappop(heap)
        pred, succ = inn[v], out[v]
        if len(pred) != 1 or len(succ) != 1:
            continue
        (x, first), = pred.items()
        (y, second), = succ.items()
        del out[x][v]
        del inn[y][v]
        pred.clear()
        succ.clear()
        new = len(nodes)
        nodes.append(_Node(SERIES, (first, second), -1, x, y))
        old = out[x].get(y)
        if old is None:
            out[x][y] = inn[y][x] = new
            continue
        if nodes[old].kind == PARALLEL:
            nodes[old].children.append(new)
        else:
            out[x][y] = inn[y][x] = len(nodes)
            nodes.append(_Node(PARALLEL, [old, new], -1, x, y))
        for w in (x, y):
            if len(out[w]) == 1 and len(inn[w]) == 1:
                heapq.heappush(heap, w)

    remaining = [(x, y, i) for x, succ in out.items() for y, i in succ.items()]
    return nodes, remaining


def recognize_dsp(graph: DirectedGraph,
                  witness_budget: int = _wsearch.DEFAULT_BUDGET) -> DecompositionTree:
    """Decompose a two-terminal series-parallel digraph, or raise NotDspError.

    The tree is deterministic (see `_reduce`). A rejection reports the
    first reason that applies, in the order: a cycle (`find_cycle`'s),
    several sources, several sinks, then a W-subdivision.
    """
    if graph.m == 0:
        raise ValueError("series-parallel recognition needs at least one edge")
    srcs = graph.sources()
    snks = graph.sinks()
    if len(srcs) == 1 and len(snks) == 1:
        s, t = srcs[0], snks[0]
        nodes, remaining = _reduce(
            (i, u, v) for i, (u, v) in enumerate(graph.edges))
        if len(remaining) == 1 and remaining[0][:2] == (s, t):
            return DecompositionTree(graph, nodes, remaining[0][2])
    cycle = graph.find_cycle()
    if cycle is not None:
        raise NotDspError(NotDspWitness("cyclic", cycle=tuple(cycle)))
    if len(srcs) != 1:
        raise NotDspError(NotDspWitness("multiple-sources", sources=tuple(srcs)))
    if len(snks) != 1:
        raise NotDspError(NotDspWitness("multiple-sinks", sinks=tuple(snks)))
    w = _extract_core_witness(graph, remaining, nodes, witness_budget)
    raise NotDspError(NotDspWitness("w-subdivision", w=w))


def _rep_paths(nodes: list[_Node], roots: Iterable[int]) -> dict[int, tuple[int, ...]]:
    """One representative terminal-to-terminal path per requested subtree."""
    memo: dict[int, tuple[int, ...]] = {}
    for root in roots:
        stack = [root]
        while stack:
            i = stack[-1]
            if i in memo:
                stack.pop()
                continue
            nd = nodes[i]
            if nd.kind == LEAF:
                memo[i] = (nd.s, nd.t)
                stack.pop()
            elif nd.kind == PARALLEL:
                first = nd.children[0]
                if first in memo:
                    memo[i] = memo[first]
                    stack.pop()
                else:
                    stack.append(first)
            else:
                left, right = nd.children
                if left in memo and right in memo:
                    memo[i] = memo[left] + memo[right][1:]
                    stack.pop()
                else:
                    if right not in memo:
                        stack.append(right)
                    if left not in memo:
                        stack.append(left)
    return memo


def _extract_core_witness(graph, remaining, nodes, budget):
    """Search the stuck reduction core for a W-subdivision, then expand each
    core edge back to a path of the original graph. Interior vertices of
    distinct core edges are disjoint by construction, so the expansion is a
    valid subdivision. Returns None when the search exceeds its budget."""
    core_edges = sorted((x, y) for x, y, _ in remaining)
    node_of = {(x, y): i for x, y, i in remaining}
    try:
        core = DirectedGraph(graph.n, core_edges)
        found = _wsearch.find_w_subdivision_graph(core, budget=budget)
    except BudgetExceededError:
        return None
    if found is None:
        return None
    reps = _rep_paths(nodes, [node_of[e] for e in core_edges])
    expanded = {}
    for key, path in found.paths.items():
        full = [path[0]]
        for x, y in zip(path, path[1:]):
            full.extend(reps[node_of[(x, y)]][1:])
        expanded[key] = tuple(full)
    return _wsearch.WSubdivision(branch=found.branch, paths=expanded)


def make_clean(tree: DecompositionTree) -> DecompositionTree:
    """Identity: `recognize_dsp` already puts each terminal edge directly under
    its P node. Kept only because the benchmark tracer (perfbench/tracing.py)
    looks this name up; remove it together with that entry."""
    return tree

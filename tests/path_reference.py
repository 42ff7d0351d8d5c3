"""Independent simple-path references for the path-induced tests.

`enumerate_simple_path_edges` is the unpruned exhaustive DFS, kept auditable
by eye: every path test compares the library against it.
`per_pair_path_induced` is the per-pair enumerator with a reach-target
lookahead that `mcps.lsp` used before the path table walked one row per
source; the budget tests compare step counts against it.
`edge_disjoint_paths_count` is an exhaustive search over path systems, the
flow tests' independent reference for max-flow values.
`minimum_feasible_reference` is the oracle's enumeration with no filter in
front of the coverage check, the oracle tests' differential reference.
`blocks_reference` reads the blocks of a graph off their definition by
simple cycles, the reference for `DirectedGraph.blocks`.
`fold_reference` is the DSP fold over an explicit postorder list, as
`mcps.spdecomp._fold` was before it walked the node store in creation order.
`solve_lsp_reference` reduces and folds each MEAS block on its own, as
`mcps.solver.solve_lsp` did before it continued the shared reduction.
`med_reference` reads the MED of an LSP off the singleton EAS sets, as
`mcps.solver.solve_med` did before it folded at alpha = 1/(m+2).
`check_p2_reference` is the P2 owner scan over every distinct EAS set,
singletons included, as `mcps.lsp.check_p2` was before it scanned only the
core sets; `solve_lsp_reference` and the fold tests read their MEAS blocks,
with defining edges, from it.
`contract_reference` is the series-parallel reduction on per-vertex dicts
of routes, as `mcps.spdecomp._contract` was before it kept flat per-vertex
lists: the contraction tests compare node stores against it.
"""

from __future__ import annotations

import heapq
from collections import defaultdict, deque
from itertools import combinations
from typing import Iterable, Optional

from mcps import (BudgetExceededError, DirectedGraph, EdgeSet, RetentionRatio,
                  check_all_pairs, eas_family)
from mcps.lsp import _meas_blocks
from mcps.solution import Solution
from mcps.spdecomp import (LEAF, PARALLEL, SERIES, NodeStore, _dsp_root, _fold, _postorder,
                           _reduce, _vertex_lists)

DEFAULT_STEP_BUDGET = 5_000_000


def enumerate_simple_path_edges(graph: DirectedGraph, u: int, v: int,
                                budget: int = DEFAULT_STEP_BUDGET) -> frozenset[int]:
    """Union of edges over all simple u-v paths, by unpruned exhaustive DFS."""
    if u == v:
        raise ValueError("endpoints must be distinct")
    steps = budget
    result: set[int] = set()
    path_vertices = [u]
    on_path = {u}
    path_edges: list[int] = []
    iters = [iter(graph.out_edges(u))]
    while iters:
        steps -= 1
        if steps < 0:
            raise BudgetExceededError("simple-path enumeration budget exceeded")
        try:
            eid, head = next(iters[-1])
        except StopIteration:
            iters.pop()
            if path_edges:
                path_edges.pop()
                on_path.discard(path_vertices.pop())
            continue
        if head == v:
            result.update(path_edges)
            result.add(eid)
            continue
        if head in on_path:
            continue
        path_vertices.append(head)
        on_path.add(head)
        path_edges.append(eid)
        iters.append(iter(graph.out_edges(head)))
    return frozenset(result)


def per_pair_path_induced(graph: DirectedGraph, u: int, v: int, budget: int) -> frozenset[int]:
    """Exact enumeration of simple u-v paths with a reach-v lookahead.

    The lookahead ignores vertices already on the current path, so every
    explored branch completes into at least one accepted path; total cost is
    proportional to the number of simple paths, charged against the budget.
    """
    steps = budget
    result: set[int] = set()
    path_vertices = [u]
    on_path = {u}
    path_edges: list[int] = []
    iters = [iter(graph.out_edges(u))]

    def reaches_target(start: int) -> bool:
        nonlocal steps
        seen = {start}
        queue = deque([start])
        while queue:
            w = queue.popleft()
            steps -= 1
            if steps < 0:
                raise BudgetExceededError("path enumeration budget exceeded")
            if w == v:
                return True
            for _, head in graph.out_edges(w):
                if head not in seen and head not in on_path:
                    seen.add(head)
                    queue.append(head)
        return False

    while iters:
        steps -= 1
        if steps < 0:
            raise BudgetExceededError("path enumeration budget exceeded")
        try:
            eid, head = next(iters[-1])
        except StopIteration:
            iters.pop()
            if path_edges:
                path_edges.pop()
                on_path.discard(path_vertices.pop())
            continue
        if head == v:
            result.update(path_edges)
            result.add(eid)
            continue
        if head in on_path:
            continue
        if not reaches_target(head):
            continue
        path_vertices.append(head)
        on_path.add(head)
        path_edges.append(eid)
        iters.append(iter(graph.out_edges(head)))
    return frozenset(result)


def _simple_paths_in(graph: DirectedGraph, s: int, t: int, allowed: frozenset[int],
                     counter: list[int]):
    """All simple s-t paths using only `allowed` edges, as edge-index tuples."""
    path_vertices = [s]
    on_path = {s}
    path_edges: list[int] = []
    iters = [iter(graph.out_edges(s))]
    while iters:
        counter[0] -= 1
        if counter[0] < 0:
            raise BudgetExceededError("path-system search budget exceeded")
        try:
            eid, head = next(iters[-1])
        except StopIteration:
            iters.pop()
            if path_edges:
                path_edges.pop()
                on_path.discard(path_vertices.pop())
            continue
        if eid not in allowed:
            continue
        if head == t:
            yield tuple(path_edges) + (eid,)
            continue
        if head in on_path:
            continue
        path_vertices.append(head)
        on_path.add(head)
        path_edges.append(eid)
        iters.append(iter(graph.out_edges(head)))


def edge_disjoint_paths_count(graph: DirectedGraph, s: int, t: int,
                              budget: int = DEFAULT_STEP_BUDGET) -> int:
    """Maximum number of pairwise edge-disjoint s-t paths, by exhaustive
    search over path systems (remove a path's edges, recurse, take the max)."""
    if s == t:
        return 0
    counter = [budget]

    def best(allowed: frozenset[int]) -> int:
        top = 0
        for path in _simple_paths_in(graph, s, t, allowed, counter):
            top = max(top, 1 + best(allowed - set(path)))
        return top

    return best(frozenset(range(graph.m)))


def minimum_feasible_reference(graph: DirectedGraph,
                               alpha: Optional[RetentionRatio]) -> EdgeSet:
    """The first feasible superset of the mandatory edges (each the only
    simple path between its endpoints), by size and then in combinations
    order over the other edges. Every candidate is checked in full: by
    `check_all_pairs` at `alpha`, or, with alpha=None (MED), by keeping every
    vertex's reachable set."""
    mandatory = [e for e, (u, v) in enumerate(graph.edges)
                 if enumerate_simple_path_edges(graph, u, v) == {e}]
    free = [e for e in range(graph.m) if e not in mandatory]
    reach = [graph.reachable_from(s) for s in range(graph.n)]

    def covers(edges: list[int]) -> bool:
        if alpha is not None:
            return check_all_pairs(graph, edges, alpha).feasible
        sub = DirectedGraph(graph.n, [graph.edges[i] for i in sorted(edges)])
        return all(sub.reachable_from(s) == reach[s] for s in range(graph.n))

    for k in range(len(free) + 1):
        for combo in combinations(free, k):
            if covers(mandatory + list(combo)):
                return EdgeSet(mandatory + list(combo), graph.m)
    raise AssertionError("full edge set must be feasible")


def blocks_reference(graph: DirectedGraph) -> list[tuple[int, ...]]:
    """The blocks of the underlying undirected multigraph by definition: two
    distinct edges share a block iff some simple cycle holds both. Edge e =
    (u, v)'s block is e plus every edge of a simple v-u path that avoids e,
    found by exhaustive DFS; the blocks come as ascending tuples, sorted."""
    incident: list[list[tuple[int, int]]] = [[] for _ in range(graph.n)]
    for e, (u, v) in enumerate(graph.edges):
        incident[u].append((e, v))
        incident[v].append((e, u))
    found = set()
    for e, (u, v) in enumerate(graph.edges):
        block = {e}

        def walk(w: int, on_path: set[int], path: list[int]) -> None:
            if w == u:
                block.update(path)
                return
            for f, x in incident[w]:
                if f != e and x not in on_path:
                    walk(x, on_path | {x}, path + [f])

        walk(v, {v}, [])
        found.add(tuple(sorted(block)))
    return sorted(found)


def fold_reference(nodes: NodeStore, root: int, alpha: RetentionRatio
                   ) -> tuple[list[int], set[int], int]:
    """The DSP fold over the subtree at `root`: (full capacity per node, kept
    leaf edges, MED size).

    One bottom-up pass from every leaf edge computes each node's full
    capacity and its capacity in the selection so far; at each P node whose
    first child is the leaf of its terminal edge, that edge is dropped if
    the other children already give the required capacity. Exactly those
    edges have another path between their endpoints: the MED leaves them
    out."""
    kind, edge, first, second, sibling = (
        nodes.kind, nodes.edge, nodes.first, nodes.second, nodes.sibling)
    required = alpha.required
    full = [1] * len(kind)
    cur = [1] * len(kind)
    kept: set[int] = set()
    med_size = 0
    for i in _postorder(nodes, root):
        k = kind[i]
        if k == SERIES:
            a, b = first[i], second[i]
            x, y = full[a], full[b]
            full[i] = x if x < y else y
            x, y = cur[a], cur[b]
            cur[i] = x if x < y else y
        elif k == PARALLEL:
            head = first[i]
            f = full[head]
            cap = 0
            c = sibling[head]
            while c >= 0:
                f += full[c]
                cap += cur[c]
                c = sibling[c]
            if kind[head] == LEAF:
                med_size -= 1
                if cap >= required(f):
                    kept.discard(edge[head])
                else:
                    cap += 1
            else:
                cap += cur[head]
            full[i] = f
            cur[i] = cap
        else:
            kept.add(edge[i])
            med_size += 1
    return full, kept, med_size


def solve_lsp_reference(graph: DirectedGraph, alpha: RetentionRatio) -> Solution:
    """The LSP optimum block by block: a one-edge MEAS block is kept and is
    its own MED; every other block is reduced alone, on the host's vertex
    ids, down to its defining edge's route and folded from that root."""
    edges = graph.edges
    chosen: set[int] = set()
    med_size = 0
    _meas_blocks(graph)  # the LSP precondition: raises NotLspError otherwise
    for defining, block in check_p2_reference(graph)[1]:
        if len(block) == 1:
            chosen.add(defining)
            med_size += 1
            continue
        nodes, remaining = _reduce(((e, *edges[e]) for e in sorted(block)), _vertex_lists(graph))
        root = _dsp_root(remaining, *edges[defining])
        assert root is not None, f"LSP block of edge {defining} is not a DSP on its endpoints"
        _, kept, block_med = _fold(nodes, (root,), alpha)
        chosen |= kept
        med_size += block_med
    return Solution(edges=EdgeSet(chosen, graph.m), algorithm="lsp", alpha=alpha,
                    mcps_star=len(chosen) - med_size)


def med_reference(graph: DirectedGraph) -> Solution:
    """Minimum equivalent digraph of a laminar series-parallel graph.

    This is the block decomposition of `solve_lsp` in the limit where every
    reachable pair must keep one path, so the requirement is
    min(capacity, 1). The DSP fold then drops every edge that has an
    alternative path, so the result is exactly the edges whose EAS set is a
    singleton, read off the EAS family without recognizing the blocks.

    Raises NotLspError (carrying the verdict) on non-LSP input.
    """
    _meas_blocks(graph)  # the LSP precondition: raises NotLspError otherwise
    chosen = [e for e, s in enumerate(eas_family(graph)) if len(s) == 1]
    return Solution(edges=EdgeSet(chosen, graph.m), algorithm="med", alpha=None,
                    mcps_star=0)


def check_p2_reference(graph: DirectedGraph
                       ) -> tuple[Optional[tuple[int, int]], list[tuple[int, frozenset[int]]]]:
    """(P2 witness, MEAS blocks) by the owner scan over every distinct EAS
    set, largest first and then by smallest edge; the blocks, with their
    defining edges and ordered by smallest edge, are [] when P2 fails."""
    distinct: dict[frozenset, int] = {}
    for e, s in enumerate(eas_family(graph)):
        distinct.setdefault(s, e)
    ordered = sorted(distinct, key=lambda s: (-len(s), min(s)))
    owner: dict[int, int] = {}
    maximal: list[tuple[int, frozenset[int]]] = []
    for idx, s in enumerate(ordered):
        owners = {owner.get(x) for x in s}
        if len(owners) > 1:
            crossed = next(t for t in ordered[:idx] if not (t.isdisjoint(s) or s <= t))
            return tuple(sorted((distinct[crossed], distinct[s]))), []
        if owners == {None}:
            maximal.append((distinct[s], s))
        for x in s:
            owner[x] = idx
    maximal.sort(key=lambda block: min(block[1]))
    return None, maximal


def contract_reference(nodes: NodeStore, routes: Iterable[tuple[int, int, int]]
                       ) -> list[tuple[int, int, int]]:
    """Series-parallel reduction of the routes given as (node id, tail, head)
    of `nodes`, read in full before `nodes` gains the S and P nodes in
    creation order; returns the routes left when no step applies, as (tail,
    head, node id).

    A series step contracts a vertex with one route in and one out, from and
    to two distinct vertices, and a parallel merge joins a new route to the
    route with its tail and head; sources and sinks of the routes are never
    contracted (see the `mcps.spdecomp` module docstring). Contraction picks the lowest
    eligible vertex id first. A merge links the newer route after the last
    child of the older route's P node, made on the first merge unless the
    older route's node is a P node already, so a route's P node keeps its
    first child. The result is deterministic; by confluence the routes left,
    though not the tree, are the same in any order on acyclic inputs.
    """
    kind, s, t, first, second, sibling = (
        nodes.kind, nodes.s, nodes.t, nodes.first, nodes.second, nodes.sibling)
    out: defaultdict[int, dict[int, int]] = defaultdict(dict)
    inn: defaultdict[int, dict[int, int]] = defaultdict(dict)
    for i, u, v in routes:
        out[u][v] = inn[v][u] = i

    heap = [v for v, succ in out.items()
            if len(succ) == 1 and len(inn[v]) == 1]
    heapq.heapify(heap)
    heappop, heappush = heapq.heappop, heapq.heappush
    while heap:
        v = heappop(heap)
        pred, succ = inn[v], out[v]
        if len(pred) != 1 or len(succ) != 1:
            continue
        (x, a), = pred.items()
        (y, b), = succ.items()
        if x == y:  # a 2-cycle x <-> v, which a step would turn into the self-loop (x, x)
            continue
        outx, inny = out[x], inn[y]
        del outx[v]
        del inny[v]
        pred.clear()
        succ.clear()
        new = len(kind)
        kind.append(SERIES)
        s.append(x)
        t.append(y)
        first.append(a)
        second.append(b)
        sibling.append(-1)
        sibling[a] = b
        old = outx.get(y)
        if old is None:
            outx[y] = inny[x] = new
            continue
        if kind[old] == PARALLEL:
            sibling[second[old]] = new
            second[old] = new
        else:
            outx[y] = inny[x] = new + 1
            kind.append(PARALLEL)
            s.append(x)
            t.append(y)
            first.append(old)
            second.append(new)
            sibling.append(-1)
            sibling[old] = new
        for w in (x, y):
            if len(out[w]) == 1 and len(inn[w]) == 1:
                heappush(heap, w)

    return [(x, y, i) for x, succ in out.items() for y, i in succ.items()]

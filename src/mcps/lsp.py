"""Laminar series-parallel machinery: path-induced subgraphs, edge EAS
families and their mu-values, the P1/P2 class checks, the MEAS partition
into the independent DSP blocks the LSP solver works on, edge subdivision,
and W-subdivision search.

Deciding whether a given edge lies on a simple u-v path is NP-hard on
general digraphs, so the exact path-induced computation enumerates simple
paths under a hard step budget. On DAGs an exact shortcut applies: edge
(x, y) lies on a simple u-v path iff x is reachable from u and v is
reachable from y, which we evaluate with per-vertex edge bitmasks in
O(m) big-integer operations for the whole family.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from . import _wsearch
from .errors import BudgetExceededError, NotDspError, NotLspError
from .graphs import DirectedGraph, EdgeSet, induced_on_edges
from .spdecomp import recognize_dsp

DEFAULT_PATH_BUDGET = 2_000_000

# Above this size the canonical pairwise rescan for witness order is skipped
# and the deterministic fast-path witness is reported instead.
_CANONICAL_RESCAN_LIMIT = 400

# Cap on n*m bits of cached closure bitmasks; beyond it DAG queries fall back
# to per-pair reachability products instead of materializing the masks.
_MASK_LIMIT_BITS = 200_000_000

_TOO_BIG = "too-big"


@dataclass(frozen=True)
class LspVerdict:
    is_lsp: bool
    p1_witness: Optional[tuple[int, int]]  # first (s, t) whose subgraph is not a DSP
    p2_witness: Optional[tuple[int, int]]  # first (e1, e2) violating laminarity


def _iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _closure_edge_masks(graph: DirectedGraph):
    """(from_mask, to_mask) per vertex on DAGs; None when cyclic; the
    _TOO_BIG sentinel when the masks would not fit the size cap.

    from_mask[u] has bit i set iff edge i's tail is reachable from u;
    to_mask[v] has bit i set iff edge i's head reaches v.
    """
    if "closure_masks" in graph._cache:
        return graph._cache["closure_masks"]
    topo = graph.topological_order()
    if topo is None:
        graph._cache["closure_masks"] = None
        return None
    if graph.n * graph.m > _MASK_LIMIT_BITS:
        graph._cache["closure_masks"] = _TOO_BIG
        return _TOO_BIG
    tail_mask = [0] * graph.n
    head_mask = [0] * graph.n
    for i, (u, v) in enumerate(graph.edges):
        tail_mask[u] |= 1 << i
        head_mask[v] |= 1 << i
    from_mask = [0] * graph.n
    for v in reversed(topo):
        acc = tail_mask[v]
        for _, head in graph.out_edges(v):
            acc |= from_mask[head]
        from_mask[v] = acc
    to_mask = [0] * graph.n
    for v in topo:
        acc = head_mask[v]
        for _, tail in graph.in_edges(v):
            acc |= to_mask[tail]
        to_mask[v] = acc
    result = (from_mask, to_mask)
    graph._cache["closure_masks"] = result
    return result


def _path_induced_enum(graph: DirectedGraph, u: int, v: int, budget: int) -> frozenset[int]:
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


def _pair_edges_dag(graph: DirectedGraph, u: int, v: int) -> frozenset[int]:
    """Per-query reachability product on DAGs, no cached masks needed."""
    from_u = graph.reachable_from(u)
    to_v = graph.reaching(v)
    return frozenset(i for i, (x, y) in enumerate(graph.edges)
                     if x in from_u and y in to_v)


def path_induced(graph: DirectedGraph, u: int, v: int,
                 budget: int = DEFAULT_PATH_BUDGET) -> frozenset[int]:
    """Indices of edges lying on at least one simple directed u-v path."""
    if u == v:
        raise ValueError("path_induced requires distinct endpoints")
    if not (0 <= u < graph.n and 0 <= v < graph.n):
        raise ValueError("vertex out of range")
    masks = _closure_edge_masks(graph)
    if masks is None:
        return _path_induced_enum(graph, u, v, budget)
    if masks is _TOO_BIG:
        return _pair_edges_dag(graph, u, v)
    from_mask, to_mask = masks
    return frozenset(_iter_bits(from_mask[u] & to_mask[v]))


@dataclass(frozen=True)
class EasFamily:
    """Per-edge path-induced edge sets and their sizes."""

    graph: DirectedGraph
    sets: tuple[frozenset[int], ...]

    def mu(self, edge_index: int) -> int:
        return len(self.sets[edge_index])


def eas_family(graph: DirectedGraph, budget: int = DEFAULT_PATH_BUDGET) -> EasFamily:
    if "eas_family" in graph._cache:
        return graph._cache["eas_family"]
    masks = _closure_edge_masks(graph)
    if masks is _TOO_BIG:
        raise BudgetExceededError(
            f"graph too large for exact path-set computation "
            f"(n*m = {graph.n * graph.m} exceeds the closure-mask cap)")
    if masks is not None:
        from_mask, to_mask = masks
        sets = tuple(frozenset(_iter_bits(from_mask[u] & to_mask[v]))
                     for u, v in graph.edges)
    else:
        sets = tuple(_path_induced_enum(graph, u, v, budget)
                     for u, v in graph.edges)
    fam = EasFamily(graph, sets)
    graph._cache["eas_family"] = fam
    return fam


def _laminar(a: frozenset, b: frozenset) -> bool:
    return a <= b or b <= a or not (a & b)


def check_p2(graph: DirectedGraph,
             budget: int = DEFAULT_PATH_BUDGET) -> tuple[bool, Optional[tuple[int, int]]]:
    """Laminarity of the edge EAS family; witness is the first violating
    (edge id, edge id) pair."""
    fam = eas_family(graph, budget)
    distinct: dict[frozenset, int] = {}
    for e, s in enumerate(fam.sets):
        if s not in distinct:
            distinct[s] = e
    ordered = sorted(distinct, key=lambda s: (-len(s), min(s)))
    owner: dict[int, int] = {}
    ok = True
    for idx, s in enumerate(ordered):
        owners = {owner.get(x) for x in s}
        if len(owners) > 1:
            ok = False
            break
        for x in s:
            owner[x] = idx
    if ok:
        return True, None
    # Recover the canonical first violating (edge id, edge id) pair.
    for j in range(graph.m):
        for i in range(j):
            if not _laminar(fam.sets[i], fam.sets[j]):
                return False, (i, j)
    raise AssertionError("owner scan reported a violation but none found")


def _is_dsp_with_terminals(graph: DirectedGraph, edge_indices, s: int, t: int) -> bool:
    sub, verts = induced_on_edges(graph, edge_indices)
    try:
        tree = recognize_dsp(sub)
    except NotDspError:
        return False
    rs, rt = tree.terminals()
    return verts[rs] == s and verts[rt] == t


def check_p1(graph: DirectedGraph,
             budget: int = DEFAULT_PATH_BUDGET) -> tuple[bool, Optional[tuple[int, int]]]:
    """Every pair's path-induced subgraph is a DSP with those terminals or
    empty; witness is the first failing (s, t) in id order.

    On DAGs only source x sink pairs need recognition: every nonempty
    P(s, t) embeds in some P(source, sink) there, and pair subgraphs of a
    DSP are again DSPs, so those recognitions decide all pairs at once.
    A failing DAG is then rescanned pair by pair for the id-order witness,
    but only up to n = _CANONICAL_RESCAN_LIMIT; above it the witness is the
    first failing source x sink pair (sources, then sinks, in id order),
    which need not be the first failing pair in id order.
    """
    masks = _closure_edge_masks(graph)
    if masks is not None:
        if masks is _TOO_BIG:
            def pair_edges(s, t):
                return _pair_edges_dag(graph, s, t)
        else:
            from_mask, to_mask = masks

            def pair_edges(s, t):
                return frozenset(_iter_bits(from_mask[s] & to_mask[t]))
        failing = None
        for s in graph.sources():
            for t in graph.sinks():
                if s == t:
                    continue
                edges = pair_edges(s, t)
                if edges and not _is_dsp_with_terminals(graph, edges, s, t):
                    failing = (s, t)
                    break
            if failing:
                break
        if failing is None:
            return True, None
        if graph.n <= _CANONICAL_RESCAN_LIMIT:
            for s in range(graph.n):
                for t in range(graph.n):
                    if s == t:
                        continue
                    edges = pair_edges(s, t)
                    if edges and not _is_dsp_with_terminals(graph, edges, s, t):
                        return False, (s, t)
        return False, failing
    for s in range(graph.n):
        for t in range(graph.n):
            if s == t:
                continue
            edges = _path_induced_enum(graph, s, t, budget)
            if edges and not _is_dsp_with_terminals(graph, edges, s, t):
                return False, (s, t)
    return True, None


def is_lsp(graph: DirectedGraph, budget: int = DEFAULT_PATH_BUDGET) -> LspVerdict:
    """Conjunction of the P1 and P2 checks, with both witnesses."""
    if "lsp_verdict" in graph._cache:
        return graph._cache["lsp_verdict"]
    p1_ok, p1_wit = check_p1(graph, budget)
    p2_ok, p2_wit = check_p2(graph, budget)
    verdict = LspVerdict(is_lsp=p1_ok and p2_ok, p1_witness=p1_wit, p2_witness=p2_wit)
    graph._cache["lsp_verdict"] = verdict
    return verdict


def meas_partition(graph: DirectedGraph,
                   budget: int = DEFAULT_PATH_BUDGET) -> list[EdgeSet]:
    """The maximal edge EAS sets; on an LSP they partition the edge set.

    These are the independent blocks of the LSP solver: by P1 each one is a
    DSP whose terminals are the endpoints of one of its edges. Ordered by
    smallest contained edge index. Raises NotLspError (carrying the verdict)
    when the precondition fails.
    """
    verdict = is_lsp(graph, budget)
    if not verdict.is_lsp:
        raise NotLspError(verdict)
    fam = eas_family(graph, budget)
    # The family is laminar, so scanning largest first, a set is maximal iff
    # it shares no edge with a set already kept; otherwise it nests in one.
    maximal = []
    covered: set[int] = set()
    for s in sorted(set(fam.sets), key=len, reverse=True):
        if covered.isdisjoint(s):
            maximal.append(s)
            covered |= s
        else:
            assert s <= covered, "maximal EAS sets overlap on an LSP"
    maximal.sort(key=min)
    assert covered == set(range(graph.m)), "maximal EAS sets do not cover E"
    return [EdgeSet(s, graph.m) for s in maximal]


def subdivide(graph: DirectedGraph) -> DirectedGraph:
    """Replace each edge (u, v) by (u, x), (x, v) with a fresh midpoint x.

    The result has n+m vertices and 2m edges, and its edge EAS family is a
    family of disjoint singletons (each new edge is the only arc through its
    midpoint), so it always satisfies the laminarity property.
    """
    edges = []
    for i, (u, v) in enumerate(graph.edges):
        x = graph.n + i
        edges.append((u, x))
        edges.append((x, v))
    return DirectedGraph(graph.n + graph.m, edges, labels=graph.labels)


def find_w_subdivision(graph: DirectedGraph,
                       budget: int = _wsearch.DEFAULT_BUDGET) -> Optional[_wsearch.WSubdivision]:
    """First embedded subdivision of the forbidden graph W, or None."""
    return _wsearch.find_w_subdivision_graph(graph, budget=budget)

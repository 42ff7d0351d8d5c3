"""Laminar series-parallel machinery: path-induced subgraphs, edge EAS
families and their mu-values, the P1/P2 class checks, the MEAS partition
into the independent DSP blocks the LSP solver works on, and edge
subdivision.

Every path-induced edge set P(s, t) is read from one table, `_pair_row`,
as an edge bitmask. On DAGs edge (x, y) lies on a simple s-t path iff s
reaches x and y reaches t, so P(s, t) is `from_mask[s] & to_mask[t]` over
per-vertex closure masks built in O(m) big-integer operations. The masks
take n * m bits, so above _MASK_LIMIT_BITS a query raises
BudgetExceededError; P1, P2, the EAS family, the MEAS blocks and the LSP
solver query only the routes of `_core`, left by one reduction of the whole
graph, cyclic or not, and P1 only pairs inside one of its blocks. Deciding
whether an edge lies on a simple s-t path is NP-hard on general digraphs, so
on cyclic graphs the table walks every simple path from s once, under a hard
step budget of DEFAULT_PATH_BUDGET * (n - 1) path prefixes per source, and
caches each row P(s, *): the core's for the LSP steps, the graph's for
`path_induced`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import BudgetExceededError, NotLspError
from .graphs import DirectedGraph, EdgeSet
from .spdecomp import (LEAF, PARALLEL, NodeStore, _dsp_root, _leaf_edges, _reduce,
                       _reduce_graph, _vertex_lists)

DEFAULT_PATH_BUDGET = 2_000_000

# Cap on n*m bits of cached closure bitmasks; beyond it every DAG path-set
# query raises BudgetExceededError.
_MASK_LIMIT_BITS = 200_000_000


@dataclass(frozen=True)
class LspVerdict:
    p1_witness: Optional[tuple[int, int]]  # first failing in-block candidate (s, t)
    p2_witness: Optional[tuple[int, int]]  # defining edges of the first crossing EAS sets

    @property
    def is_lsp(self) -> bool:
        return self.p1_witness is None and self.p2_witness is None


def _iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _closure_edge_masks(graph: DirectedGraph):
    """(from_mask, to_mask) per vertex on DAGs, or None when cyclic; raises
    BudgetExceededError when the masks would not fit the size cap.

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
        raise BudgetExceededError(
            f"graph too large for exact path-set computation "
            f"(n*m = {graph.n * graph.m} exceeds the closure-mask cap)")
    from_mask = [0] * graph.n
    for v in reversed(topo):
        acc = 0
        for e, head in graph.out_edges(v):
            acc |= from_mask[head] | 1 << e
        from_mask[v] = acc
    to_mask = [0] * graph.n
    for v in topo:
        acc = 0
        for e, tail in graph.in_edges(v):
            acc |= to_mask[tail] | 1 << e
        to_mask[v] = acc
    result = (from_mask, to_mask)
    graph._cache["closure_masks"] = result
    return result


def _source_row(graph: DirectedGraph, s: int) -> list[int]:
    """P(s, t) as an edge bitmask for every t, by one DFS over the simple
    paths that start at s.

    Every prefix of such a path that ends at t is a simple s-t path, so
    ORing the current path's edge mask into the entry of its head at each
    step leaves exactly P(s, t) there. The walk charges one step per simple
    path prefix against a budget of DEFAULT_PATH_BUDGET * (n - 1). A prefix
    ending at w is also a distinct step of a per-pair enumeration of the
    simple s-w paths that prunes branches which cannot reach w (the step
    that extends its parent prefix by its last edge), so a row never takes
    more steps than its n - 1 pairs would together: whenever every pair's
    enumeration fits DEFAULT_PATH_BUDGET, every row fits its budget.
    """
    budget = DEFAULT_PATH_BUDGET * (graph.n - 1)
    steps = budget
    row = [0] * graph.n
    on_path = [False] * graph.n
    on_path[s] = True
    path = [s]
    masks = [0]
    iters = [iter(graph.out_edges(s))]
    while iters:
        for eid, head in iters[-1]:
            if not on_path[head]:
                break
        else:
            iters.pop()
            masks.pop()
            on_path[path.pop()] = False
            continue
        steps -= 1
        if steps < 0:
            raise BudgetExceededError(
                f"path enumeration budget exceeded: {budget} steps from source {s}")
        mask = masks[-1] | (1 << eid)
        row[head] |= mask
        on_path[head] = True
        path.append(head)
        masks.append(mask)
        iters.append(iter(graph.out_edges(head)))
    return row


def _pair_row(graph: DirectedGraph, s: int) -> tuple[int, list[int]]:
    """(reach, row) with P(s, t) = reach & row[t] for every t: from_mask[s]
    and the to_masks on DAGs, -1 and the source's cached row walk otherwise."""
    masks = _closure_edge_masks(graph)
    if masks is None:
        rows = graph._cache.setdefault("path_rows", {})
        if s not in rows:
            rows[s] = _source_row(graph, s)
        return -1, rows[s]
    from_mask, to_mask = masks
    return from_mask[s], to_mask


def path_induced(graph: DirectedGraph, u: int, v: int) -> frozenset[int]:
    """Indices of edges lying on at least one simple directed u-v path.

    On DAGs the answer is read from the closure masks, which raise
    BudgetExceededError when n * m exceeds _MASK_LIMIT_BITS. On cyclic
    graphs the first query from u walks every simple path from u once and
    answers all later queries from u; the walk raises BudgetExceededError
    past DEFAULT_PATH_BUDGET * (n - 1) path prefixes.
    """
    if u == v:
        raise ValueError("path_induced requires distinct endpoints")
    if not (0 <= u < graph.n and 0 <= v < graph.n):
        raise ValueError("vertex out of range")
    reach, row = _pair_row(graph, u)
    return frozenset(_iter_bits(reach & row[v]))


def _core(graph: DirectedGraph) -> tuple[NodeStore, list, DirectedGraph, list[list[int]]]:
    """The routes the LSP steps read, cached on the graph: the store of the
    graph's one reduction (`_reduce_graph`, shared with `recognize_dsp`;
    leaf i is edge i), the routes left as (tail, head, node id), the core (a
    graph on the host's vertices whose edge r is route r) and each route's
    edges. BudgetExceededError is raised if a DAG's core is over the mask
    cap; no step removes a cycle (see `spdecomp`), so a cyclic core reads none.

    Each route R = (a, b) is a DSP, a != b, whose interior (contracted)
    vertices have no edge outside R, so a simple path enters the interior
    from a and leaves it at b. For s and t left in the core, a simple s-t
    path is thus a simple path of the core crossing each route on it from
    tail to head, and every route edge lies on a crossing: P(s, t) is the
    edges of the routes in the core's own P(s, t) (`_pair_row`), and each
    reduction step is one of P(s, t)'s own or misses it. If P(s, t) is a DSP
    it is acyclic, and by confluence (see `spdecomp`) its routes reduce as
    P(s, t) would, to the one route (s, t); if they do, P(s, t) is a DSP.
    """
    if "core" not in graph._cache:
        nodes, routes = _reduce_graph(graph)
        if (len(routes) < graph.m and graph.n * len(routes) > _MASK_LIMIT_BITS
                and graph.is_acyclic()):
            raise BudgetExceededError(
                f"graph too large for exact path-set computation (the reduced core's "
                f"n*m = {graph.n * len(routes)} exceeds the closure-mask cap; "
                f"the input's n*m is {graph.n * graph.m})")
        core = DirectedGraph(graph.n, [(x, y) for x, y, _ in routes])
        route_edges = [_leaf_edges(nodes, i) for _, _, i in routes]
        graph._cache["core"] = nodes, routes, core, route_edges
    return graph._cache["core"]


def _core_sets(graph: DirectedGraph):
    """(e, P(u, v) as a mask over core routes) for each edge e = (u, v) whose
    ends are both left in the core (see `eas_family`)."""
    core = _core(graph)[2]
    for e, (u, v) in enumerate(graph.edges):
        if core.out_degree(u) and core.in_degree(v):
            reach, row = _pair_row(core, u)
            yield e, reach & row[v]


def eas_family(graph: DirectedGraph) -> tuple[frozenset[int], ...]:
    """Each edge's EAS set P(u, v), indexed by edge, so that its mu-value
    is `len(eas_family(graph)[e])`.

    Take e = (u, v). If u and v are both left in the core, P(u, v) is the
    edges of the routes in the core's own P(u, v) (see `_core`). Otherwise u
    or v was contracted, and when the first of them was, the route on (u, v)
    holding e was its only route out of u or into v; its interior vertices have
    no other edge, so the u-v paths stay inside it and cover it: P(u, v) is
    the leaves of the P node whose first child is e, or e alone.
    """
    if "eas_family" not in graph._cache:
        nodes, _, _, route_edges = _core(graph)
        sets = [frozenset((e,)) for e in range(graph.m)]
        kind, first = nodes.kind, nodes.first
        for i, k in enumerate(kind):
            if k == PARALLEL and kind[first[i]] == LEAF:
                sets[nodes.edge[first[i]]] = frozenset(_leaf_edges(nodes, i))
        for e, mask in _core_sets(graph):
            sets[e] = frozenset(x for r in _iter_bits(mask) for x in route_edges[r])
        graph._cache["eas_family"] = tuple(sets)
    return graph._cache["eas_family"]


def check_p2(graph: DirectedGraph) -> Optional[tuple[int, int]]:
    """None when the edge EAS family is laminar, else the witness: the first
    set S that crosses an earlier one and the first earlier set S crosses, as
    their defining edges (the first edge whose EAS set each one is), sorted.

    Only core sets can cross (see `eas_family`): every other EAS set is the
    leaves of a subtree inside one route, so it is inside or disjoint from
    every other set. One owner scan over the distinct core masks of two or
    more routes (a one-route set crosses nothing), largest first and then by
    smallest edge, decides P2 with the witness of a scan over every set: in
    a laminar family each set nests in the last earlier set that holds its
    routes, or shares none with any earlier set and is then maximal. S is
    the first set whose routes have two or more owners (no owner counts as
    one). The maximal masks, with their defining edges and ordered by
    smallest edge, are cached: the MEAS blocks the LSP solver contracts.
    """
    route_edges = _core(graph)[3]
    distinct: dict[int, int] = {}
    for e, mask in _core_sets(graph):
        if mask & (mask - 1):
            distinct.setdefault(mask, e)
    key = {s: (-sum(len(route_edges[r]) for r in _iter_bits(s)),
               min(min(route_edges[r]) for r in _iter_bits(s))) for s in distinct}
    ordered = sorted(distinct, key=key.__getitem__)
    owner = [-1] * len(route_edges)
    maximal: list[tuple[int, int]] = []
    for idx, s in enumerate(ordered):
        owners = {owner[r] for r in _iter_bits(s)}
        if len(owners) > 1:
            # an earlier set is at least as large, so s crosses it unless disjoint or inside it
            crossed = next((t for t in ordered[:idx] if s & t not in (0, s)), None)
            assert crossed is not None, "the owner scan failed on a set that crosses none"
            return tuple(sorted((distinct[crossed], distinct[s])))
        if owners == {-1}:
            maximal.append((distinct[s], s))
        for r in _iter_bits(s):
            owner[r] = idx
    maximal.sort(key=lambda block: key[block[1]][1])
    graph._cache["meas_blocks"] = maximal
    return None


def _is_dsp_with_terminals(graph: DirectedGraph, edge_indices, s: int, t: int,
                           lists: list[list[int]]) -> bool:
    # Every edge given lies on an s-t path, so s is the only source and t
    # the only sink, cyclic or not, as `_dsp_root` asks.
    edges = graph.edges
    return _dsp_root(_reduce(((i, *edges[i]) for i in edge_indices), lists)[1], s, t) is not None


def check_p1(graph: DirectedGraph) -> Optional[tuple[int, int]]:
    """None when every pair's path-induced subgraph P(s, t) is empty or a
    DSP on (s, t), else the first failing candidate (s, t) in id order, each
    decided by an in-place series-parallel reduction (`spdecomp._reduce`).

    Candidates lie inside one block of two or more edges of the host
    (`DirectedGraph.blocks`): a simple path between two vertices of a block
    stays in it, and between vertices of no common block every simple path
    passes the cut vertices c1, ..., ck between them in order while any
    in-block paths s-c1, ..., ck-t join into one, so P(s, t) is empty or the
    series composition of P(s, c1), ..., P(ck, t), a DSP iff each of them
    is. On a cyclic graph a block's candidates are its edges' tails x heads;
    on a DAG, the block's own sources x sinks, as a source a of the block
    reaching s and a sink b reached from t extend every s-t path to a simple
    a-b path: P(s, t) is P(a, b)'s pair subgraph.

    The host is the core (`_core`), cyclic or not: reducing a core pair's
    routes decides the pair, and its pairs decide all pairs. A contracted
    vertex lies inside one route R = (a, b), entered from a and left at b,
    so for s inside R and t outside, P(s, t) is empty or R's P_R(s, b) in
    series with P(b, t), and likewise for t inside; for both inside, it is
    P_R(s, t) if s reaches t in R (a DSP's s-b and a-t paths then meet),
    else empty or P_R(s, b), P(b, a), P_R(a, t) in series. Pair subgraphs of
    a DSP are empty or DSPs, so the core pairs in P(s, t) decide it.

    Per source, P(s, t) are taken largest first, and one inside an already
    recognized DSP D = P(s, t') passes unreduced, cyclic or not: each edge
    of P(s, t) is on a simple s-t path inside D, so P(s, t) is D's own
    P_D(s, t), a DSP like every pair subgraph of a DSP.
    """
    host = _core(graph)[2]
    lists = _vertex_lists(host)  # one set for every pair
    targets: dict[int, set[int]] = {}
    for block in host.blocks():
        if len(block) > 1:
            tails, heads = map(set, zip(*(host.edges[e] for e in block)))
            if host.is_acyclic():
                tails, heads = tails - heads, heads - tails
            for s in tails:
                targets.setdefault(s, set()).update(heads)
    for s in sorted(targets):
        # a lone edge on an s-t path is (s, t), so only two or more are reduced
        reach, row = _pair_row(host, s)
        pairs = [(mask, t) for t in sorted(targets[s]) if (mask := reach & row[t]) & (mask - 1)]
        pairs.sort(key=lambda pair: -pair[0].bit_count())
        dsps, bad = [], graph.n
        for mask, t in pairs:  # past a failing t only smaller targets matter
            if t > bad or any(mask & d == mask for d in dsps):
                continue
            if _is_dsp_with_terminals(host, _iter_bits(mask), s, t, lists):
                dsps.append(mask)
            else:
                bad = t
        if bad < graph.n:
            return s, bad
    return None


def is_lsp(graph: DirectedGraph) -> LspVerdict:
    """Conjunction of the P1 and P2 checks, with both witnesses."""
    if "lsp_verdict" not in graph._cache:
        graph._cache["lsp_verdict"] = LspVerdict(p1_witness=check_p1(graph),
                                                 p2_witness=check_p2(graph))
    return graph._cache["lsp_verdict"]


def _meas_blocks(graph: DirectedGraph) -> list[tuple[int, int]]:
    """(defining edge, core-route mask) for each MEAS block of two or more
    routes, as `check_p2` cached them. Raises NotLspError (carrying the
    verdict) when the graph is not an LSP."""
    verdict = is_lsp(graph)
    if not verdict.is_lsp:
        raise NotLspError(verdict)
    return graph._cache["meas_blocks"]


def meas_partition(graph: DirectedGraph) -> list[EdgeSet]:
    """The maximal edge EAS sets; on an LSP they partition the edge set.

    These are the independent blocks of the LSP solver: by P1 each one is a
    DSP whose terminals are the endpoints of one of its edges. Ordered by
    smallest contained edge index. Raises NotLspError (carrying the verdict)
    when the precondition fails. The family is laminar then, so a set taken
    largest first is maximal iff its smallest edge is in no set taken before.
    """
    _meas_blocks(graph)
    taken: set[int] = set()
    blocks = []
    for s in sorted(set(eas_family(graph)), key=len, reverse=True):
        if min(s) not in taken:
            taken.update(s)
            blocks.append(s)
    return [EdgeSet(block, graph.m) for block in sorted(blocks, key=min)]


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

"""Instance generators: the Set-Cover reduction (with its p/(p+1)
generalization), seeded random DSP/LSP builders, and named fixtures.

All generators are deterministic for a fixed seed and embed their seed and
parameters in the graph's `meta` for replayability. Outputs are asserted to
pass their class recognizers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations
from operator import index
from typing import Iterable

from .errors import McpsError
from .flow import RetentionRatio, check_all_pairs, max_flow_value
from .graphs import DirectedGraph, EdgeSet
from .lsp import is_lsp
from .spdecomp import recognize_dsp


@dataclass(frozen=True)
class SetCoverInstance:
    """A set-cover instance over universe 0..universe_size-1."""

    universe_size: int
    sets: tuple[frozenset[int], ...]

    def __post_init__(self):
        if self.universe_size <= 0:
            raise ValueError("universe must be nonempty")
        covered: set[int] = set()
        for i, s in enumerate(self.sets):
            if not s:
                raise ValueError(f"set {i} is empty")
            if min(s) < 0 or max(s) >= self.universe_size:
                raise ValueError(f"set {i} leaves the universe")
            covered.update(map(index, s))  # 0.5 would pass the range check
        if len(covered) < self.universe_size:  # every item lies in the universe
            smallest = next(u for u in range(self.universe_size) if u not in covered)
            raise ValueError(f"{self.universe_size - len(covered)} items appear in no set, "
                             f"the smallest is {smallest}")

    def frequency(self, item: int) -> int:
        return sum(1 for s in self.sets if item in s)

    def max_frequency(self) -> int:
        return max(self.frequency(u) for u in range(self.universe_size))


@dataclass
class ReductionArtifact:
    """The hardness-construction graph plus role bookkeeping.

    Edge roles: "incidence" (item-to-set two-edge paths), "drain"
    (set-to-sink two-edge paths), "set_shortcut" (one direct set-to-sink
    edge per set), "item_shortcut" (one direct item-to-sink edge per item).
    The incidence and drain edges together form the unique minimum
    equivalent digraph of the (acyclic) construction.
    """

    graph: DirectedGraph
    p: int
    instance: SetCoverInstance
    item_vertex: dict[int, int]
    set_vertex: dict[int, int]
    sink: int
    vertex_roles: dict[int, str]
    edge_roles: dict[int, str]
    set_shortcut_edge: dict[int, int]
    item_shortcut_edge: dict[int, int]
    med_edges: frozenset[int] = field(default_factory=frozenset)

    @property
    def alpha(self) -> RetentionRatio:  # the ratio p/(p+1) the graph is built for
        return RetentionRatio(self.p, self.p + 1)

    def med_size(self) -> int:
        return len(self.med_edges)


def build_reduction(sc: SetCoverInstance, p: int = 1) -> ReductionArtifact:
    """Build the hardness-construction graph for retention ratio p/(p+1).

    Each item vertex is joined to each containing set vertex by p+1 parallel
    two-edge paths (distinct interior vertices keep the graph simple), each
    set vertex reaches the sink by p parallel two-edge paths, and every set
    and item vertex additionally gets one direct shortcut edge to the sink.
    """
    if p < 1:
        raise ValueError("p must be a positive integer")
    n_items = sc.universe_size
    vertex_roles: dict[int, str] = {}
    labels: dict[int, str] = {}
    item_vertex = {u: u for u in range(n_items)}
    for u in range(n_items):
        vertex_roles[u] = "item"
        labels[u] = f"u{u}"
    next_id = n_items
    edges: list[tuple[int, int]] = []
    edge_roles: dict[int, str] = {}

    incidence_mids: dict[tuple[int, int], list[int]] = {}
    for i, s in enumerate(sc.sets):
        for u in sorted(s):
            mids = []
            for _ in range(p + 1):
                vertex_roles[next_id] = "incidence-mid"
                mids.append(next_id)
                next_id += 1
            incidence_mids[(i, u)] = mids
    set_vertex: dict[int, int] = {}
    for i in range(len(sc.sets)):
        set_vertex[i] = next_id
        vertex_roles[next_id] = "set"
        labels[next_id] = f"S{i}"
        next_id += 1
    drain_mids: dict[int, list[int]] = {}
    for i in range(len(sc.sets)):
        mids = []
        for _ in range(p):
            vertex_roles[next_id] = "drain-mid"
            mids.append(next_id)
            next_id += 1
        drain_mids[i] = mids
    sink = next_id
    vertex_roles[sink] = "sink"
    labels[sink] = "t"
    next_id += 1

    def add(u: int, v: int, role: str) -> int:
        edges.append((u, v))
        edge_roles[len(edges) - 1] = role
        return len(edges) - 1

    for i, s in enumerate(sc.sets):
        for u in sorted(s):
            for mid in incidence_mids[(i, u)]:
                add(item_vertex[u], mid, "incidence")
                add(mid, set_vertex[i], "incidence")
    for i in range(len(sc.sets)):
        for mid in drain_mids[i]:
            add(set_vertex[i], mid, "drain")
            add(mid, sink, "drain")
    set_shortcut_edge = {i: add(set_vertex[i], sink, "set_shortcut")
                         for i in range(len(sc.sets))}
    item_shortcut_edge = {u: add(item_vertex[u], sink, "item_shortcut")
                          for u in range(n_items)}

    graph = DirectedGraph(next_id, edges, labels=labels,
                          meta={"kind": "setcover-reduction", "p": p})
    med = frozenset(e for e, role in edge_roles.items() if role in ("incidence", "drain"))
    art = ReductionArtifact(graph=graph, p=p, instance=sc, item_vertex=item_vertex,
                            set_vertex=set_vertex, sink=sink, vertex_roles=vertex_roles,
                            edge_roles=edge_roles, set_shortcut_edge=set_shortcut_edge,
                            item_shortcut_edge=item_shortcut_edge, med_edges=med)
    _assert_reduction_invariants(art)
    return art


def _longest_path_length(graph: DirectedGraph) -> int:
    topo = graph.topological_order()
    assert topo is not None
    dist = [0] * graph.n
    for v in reversed(topo):
        for _, head in graph.out_edges(v):
            dist[v] = max(dist[v], 1 + dist[head])
    return max(dist, default=0)


def _assert_reduction_invariants(art: ReductionArtifact) -> None:
    g = art.graph
    sc = art.instance
    incidences = sum(len(s) for s in sc.sets)
    k = len(sc.sets)
    expected_n = sc.universe_size + (art.p + 1) * incidences + k + art.p * k + 1
    expected_m = 2 * (art.p + 1) * incidences + 2 * art.p * k + k + sc.universe_size
    assert g.n == expected_n and g.m == expected_m, "construction size mismatch"
    assert g.is_acyclic(), "construction must be acyclic"
    assert _longest_path_length(g) <= 4, "maximum path length must be 4"
    if art.p == 1:
        for u in range(sc.universe_size):
            lam = max_flow_value(g, art.item_vertex[u], art.sink)
            assert lam == 2 * sc.frequency(u) + 1, \
                f"item {u} capacity {lam} != 2f+1"


def sc_to_mcps_solution(art: ReductionArtifact, cover: Iterable[int]) -> EdgeSet:
    """Map a set cover to a feasible solution: the MED edges plus one
    set-shortcut edge per chosen set. Value is med_size + |cover|."""
    cover = sorted(set(cover))
    covered: set[int] = set()
    for i in cover:
        if not 0 <= i < len(art.instance.sets):
            raise ValueError(f"set index {i} out of range")
        covered |= art.instance.sets[i]
    if covered != set(range(art.instance.universe_size)):
        missing = sorted(set(range(art.instance.universe_size)) - covered)
        raise ValueError(f"not a cover: items {missing} uncovered")
    chosen = set(art.med_edges)
    chosen.update(art.set_shortcut_edge[i] for i in cover)
    edge_set = EdgeSet(chosen, art.graph.m)
    report = check_all_pairs(art.graph, edge_set, art.alpha)
    assert report.feasible, "mapped solution must be feasible"
    return edge_set


def mcps_to_sc_solution(art: ReductionArtifact, edge_set: EdgeSet) -> frozenset[int]:
    """Map a feasible solution back to a set cover of size at most
    objective - med_size: keep the chosen set shortcuts, then replace each
    chosen item shortcut, if the item is still uncovered, by the
    smallest-index set containing it."""
    report = check_all_pairs(art.graph, edge_set, art.alpha)
    if not report.feasible:
        raise ValueError(f"edge set is not feasible: {report.first_violation}")
    cover = {i for i, e in art.set_shortcut_edge.items() if e in edge_set}
    covered: set[int] = set()
    for i in cover:
        covered |= art.instance.sets[i]
    for u in range(art.instance.universe_size):
        if art.item_shortcut_edge[u] in edge_set and u not in covered:
            i = min(i for i, s in enumerate(art.instance.sets) if u in s)
            cover.add(i)
            covered |= art.instance.sets[i]
    return frozenset(cover)


def brute_force_set_cover(sc: SetCoverInstance) -> frozenset[int]:
    """Smallest cover by subfamily enumeration, lexicographically first."""
    universe = set(range(sc.universe_size))
    for k in range(len(sc.sets) + 1):
        for combo in combinations(range(len(sc.sets)), k):
            union: set[int] = set()
            for i in combo:
                union |= sc.sets[i]
            if union == universe:
                return frozenset(combo)
    raise AssertionError("instance guarantees every item is coverable")


# --- random generators ----------------------------------------------------

def _random_sp_tree(rng: random.Random, leaves: int) -> tuple[list[tuple], int]:
    """Random binary S/P tree over `leaves` single-edge leaves."""
    nodes: list[tuple] = [("leaf",) for _ in range(leaves)]
    roots = list(range(leaves))
    while len(roots) > 1:
        i = rng.randrange(len(roots))
        a = roots.pop(i)
        j = rng.randrange(len(roots))
        b = roots.pop(j)
        kind = "S" if rng.random() < 0.55 else "P"
        nodes.append((kind, a, b))
        roots.append(len(nodes) - 1)
    return nodes, roots[0]


def _materialize_sp_tree(nodes: list[tuple], root: int) -> tuple[int, list[tuple[int, int]]]:
    """Assign vertex ids top-down; subdivide duplicate parallel edges so the
    result stays simple."""
    next_vertex = 2
    raw_edges: list[tuple[int, int]] = []
    stack: list[tuple[int, int, int]] = [(root, 0, 1)]
    while stack:
        idx, s, t = stack.pop()
        node = nodes[idx]
        if node[0] == "leaf":
            raw_edges.append((s, t))
        elif node[0] == "S":
            x = next_vertex
            next_vertex += 1
            stack.append((node[2], x, t))
            stack.append((node[1], s, x))
        else:
            stack.append((node[2], s, t))
            stack.append((node[1], s, t))
    seen: set[tuple[int, int]] = set()
    edges: list[tuple[int, int]] = []
    for u, v in raw_edges:
        if (u, v) in seen:
            w = next_vertex
            next_vertex += 1
            edges.append((u, w))
            edges.append((w, v))
        else:
            seen.add((u, v))
            edges.append((u, v))
    return next_vertex, edges


def _dsp_block(rng: random.Random, target_edges: int) -> tuple[int, list[tuple[int, int]]]:
    """(n, edges) of a random DSP on terminals 0 and 1."""
    nodes, root = _random_sp_tree(rng, target_edges)
    return _materialize_sp_tree(nodes, root)


def gen_random_dsp(seed: int, edges: int) -> DirectedGraph:
    """Random two-terminal series-parallel digraph with about `edges` edges
    (duplicate parallel compositions of bare edges get a subdivision, which
    can push the count slightly above the target)."""
    if edges < 1:
        raise ValueError("target edge count must be positive")
    n, edge_list = _dsp_block(random.Random(seed), edges)
    graph = DirectedGraph(n, edge_list,
                          meta={"kind": "random-dsp", "seed": seed, "edges": edges})
    recognize_dsp(graph)  # construction guarantee, asserted
    return graph


def _cyclic_dsp_block(rng: random.Random, target_edges: int) -> tuple[int, list[tuple[int, int]]]:
    """A DSP with sink identified into the source. A terminal edge would
    become a self-loop, so it is subdivided first."""
    n, edges = _dsp_block(rng, target_edges)
    if (0, 1) in edges:
        out = []
        for u, v in edges:
            if (u, v) == (0, 1):
                out.append((0, n))
                out.append((n, 1))
                n += 1
            else:
                out.append((u, v))
        edges = out

    def relabel(v: int) -> int:
        if v == 1:
            return 0
        return v - 1 if v > 1 else v

    return n - 1, [(relabel(u), relabel(v)) for u, v in edges]


def _bipartite_block(rng: random.Random) -> tuple[int, list[tuple[int, int]]]:
    a = rng.randint(2, 3)
    b = rng.randint(2, 3)
    return a + b, [(i, a + j) for i in range(a) for j in range(b)]


def gen_random_lsp(seed: int, blocks: int = 4, block_edges: tuple[int, int] = (2, 8),
                   cyclic_prob: float = 0.25, bipartite_prob: float = 0.2,
                   check: bool = True) -> DirectedGraph:
    """Random laminar series-parallel graph built from blocks attached
    tree-like at cut vertices: plain DSPs, cyclic DSPs (source and sink
    identified) and naturally oriented complete bipartite blocks."""
    if blocks < 1:
        raise ValueError("need at least one block")
    if not 1 <= block_edges[0] <= block_edges[1]:
        raise ValueError(f"block_edges (LO, HI) needs 1 <= LO <= HI, got {tuple(block_edges)}")
    if not (cyclic_prob >= 0 and bipartite_prob >= 0 and cyclic_prob + bipartite_prob <= 1):
        raise ValueError(f"the cyclic and bipartite block probabilities need to be nonnegative "
                         f"with a sum of at most 1, got {cyclic_prob} and {bipartite_prob}")
    rng = random.Random(seed)
    n = 0
    edges: list[tuple[int, int]] = []
    for _ in range(blocks):
        roll = rng.random()
        target = rng.randint(*block_edges)
        if roll < bipartite_prob:
            bn, bedges = _bipartite_block(rng)
        elif roll < bipartite_prob + cyclic_prob:
            bn, bedges = _cyclic_dsp_block(rng, max(2, target))
        else:
            bn, bedges = _dsp_block(rng, target)
        if n == 0:
            mapping = list(range(bn))
            n = bn
        else:
            anchor_local = rng.randrange(bn)
            anchor_global = rng.randrange(n)
            mapping = []
            for v in range(bn):
                if v == anchor_local:
                    mapping.append(anchor_global)
                else:
                    mapping.append(n)
                    n += 1
        edges.extend((mapping[u], mapping[v]) for u, v in bedges)
    graph = DirectedGraph(n, edges, meta={
        "kind": "random-lsp", "seed": seed, "blocks": blocks,
        "block_edges": list(block_edges), "cyclic_prob": cyclic_prob,
        "bipartite_prob": bipartite_prob,
    })
    if check:
        verdict = is_lsp(graph)
        if not verdict.is_lsp:
            raise McpsError(f"generator produced a non-LSP graph (seed {seed}): {verdict}")
    return graph


# --- named fixtures -------------------------------------------------------

def example_cover_instance() -> SetCoverInstance:
    """The four-item, three-set cover instance used by the reduction tests."""
    return SetCoverInstance(4, (frozenset({0, 1, 2}), frozenset({2, 3}), frozenset({1, 2})))


def example_reduction_artifact() -> ReductionArtifact:
    return build_reduction(example_cover_instance(), p=1)


def fixtures() -> dict[str, DirectedGraph]:
    """Named fixture graphs used across tests and the CLI."""
    out: dict[str, DirectedGraph] = {}
    out["W"] = DirectedGraph(4, [(0, 1), (0, 2), (1, 3), (2, 3), (1, 2)])
    # W (on u, s, t, v) plus the parallel two-edge paths u->x->s and t->y->v.
    out["w_plus"] = DirectedGraph(
        6,
        [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (0, 4), (4, 1), (2, 5), (5, 3)],
        labels={0: "u", 1: "s", 2: "t", 3: "v", 4: "x", 5: "y"})
    for n in (3, 4, 5, 6):
        out[f"C{n}"] = DirectedGraph(n, [(i, (i + 1) % n) for i in range(n)])
    for n in (4, 6):
        arcs = []
        for i in range(n):
            arcs.append((i, (i + 1) % n))
            arcs.append(((i + 1) % n, i))
        out[f"bidirected_C{n}"] = DirectedGraph(n, arcs)
    out["bidirected_K4"] = DirectedGraph(
        4, [(i, j) for i in range(4) for j in range(4) if i != j])
    out["triangle_chord"] = DirectedGraph(3, [(0, 1), (1, 2), (0, 2)])
    out["diamond"] = DirectedGraph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    out["cyclic_diamond"] = DirectedGraph(3, [(0, 1), (0, 2), (1, 0), (2, 0)])
    # Blocks (DSPs and cyclic DSPs) glued at cut vertices.
    out["block_chain"] = DirectedGraph(10, [
        (0, 1), (0, 2), (1, 3), (2, 3),          # diamond 0..3
        (3, 4), (4, 3),                          # two-cycle at 3
        (4, 5), (5, 6), (4, 6),                  # triangle with chord at 4
        (6, 7),                                  # pendant edge
        (0, 8), (8, 9), (9, 0),                  # cyclic triangle at 0
    ])
    # Two diamonds closed into a ring (a biconnected cyclic LSP).
    out["diamond_ring"] = DirectedGraph(6, [
        (0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 0), (5, 0)])
    out["K33"] = DirectedGraph(6, [(i, 3 + j) for i in range(3) for j in range(3)])
    out["reduction_example"] = example_reduction_artifact().graph
    return out

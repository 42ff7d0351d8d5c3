"""Exhaustive, budgeted search for an embedded subdivision of the forbidden
graph W (vertices a, b, c, d; arcs a->b, a->c, b->c, b->d, c->d).

The searcher enumerates branch quadruples in ascending id order and then the
five connecting paths with full backtracking, requiring the paths to be
internally disjoint from each other and from all branch vertices. That makes
a returned witness a genuine subdivision subgraph and makes the search
complete: if any embedding exists, the lexicographically first one is found.
Cost is exponential in the worst case, so every step is charged against a
hard budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .errors import BudgetExceededError
from .graphs import DirectedGraph

DEFAULT_BUDGET = 2_000_000

_PATH_KEYS = ("a->b", "a->c", "b->c", "b->d", "c->d")


@dataclass(frozen=True)
class WSubdivision:
    """Branch vertices (a, b, c, d) plus one vertex path per arc of W."""

    branch: tuple[int, int, int, int]
    paths: dict[str, tuple[int, ...]]

    def validate(self, graph: DirectedGraph) -> None:
        """Check the witness is a subdivision of W embedded in the graph."""
        a, b, c, d = self.branch
        expected_ends = {
            "a->b": (a, b), "a->c": (a, c), "b->c": (b, c),
            "b->d": (b, d), "c->d": (c, d),
        }
        interiors: list[set[int]] = []
        used_edges: set[tuple[int, int]] = set()
        for key, (x, y) in expected_ends.items():
            path = self.paths[key]
            assert path[0] == x and path[-1] == y, f"{key} endpoints wrong"
            assert len(path) >= 2, f"{key} must contain an edge"
            assert len(set(path)) == len(path), f"{key} revisits a vertex"
            for u, v in zip(path, path[1:]):
                assert graph.edge_index(u, v) is not None, f"{key} uses missing edge"
                assert (u, v) not in used_edges, "paths share an edge"
                used_edges.add((u, v))
            inner = set(path[1:-1])
            assert inner.isdisjoint({a, b, c, d}), f"{key} passes a branch vertex"
            for other in interiors:
                assert inner.isdisjoint(other), "path interiors intersect"
            interiors.append(inner)


class _Budget:
    __slots__ = ("left",)

    def __init__(self, steps: int):
        self.left = steps

    def spend(self, amount: int = 1) -> None:
        self.left -= amount
        if self.left < 0:
            raise BudgetExceededError("W-subdivision search budget exceeded")


def _simple_paths(graph: DirectedGraph, u: int, v: int, banned: set[int],
                  reach: list[set[int]], budget: _Budget) -> Iterator[tuple[int, ...]]:
    """All simple u-v paths avoiding `banned` internally, DFS in edge order."""
    path = [u]
    on_path = {u}
    # stack of iterators over out-edges, parallel to `path`
    iters = [iter(graph.out_edges(u))]
    while iters:
        budget.spend()
        try:
            _, head = next(iters[-1])
        except StopIteration:
            iters.pop()
            on_path.discard(path.pop())
            continue
        if head == v:
            yield tuple(path) + (v,)
            continue
        if head in on_path or head in banned or v not in reach[head]:
            continue
        path.append(head)
        on_path.add(head)
        iters.append(iter(graph.out_edges(head)))


def find_w_subdivision_graph(graph: DirectedGraph,
                             budget: int = DEFAULT_BUDGET) -> Optional[WSubdivision]:
    """First W-subdivision of the graph in lexicographic order, or None."""
    if graph.m < 5:
        return None
    steps = _Budget(budget)
    outd = [graph.out_degree(v) for v in range(graph.n)]
    ind = [graph.in_degree(v) for v in range(graph.n)]
    reach: list[set[int]] = []
    for v in range(graph.n):
        reach.append(graph.reachable_from(v))
        steps.spend(sum(outd[w] for w in reach[-1]))  # one step per edge the BFS scans

    for a in range(graph.n):
        if outd[a] < 2:
            continue
        for b in range(graph.n):
            if b == a or outd[b] < 2 or ind[b] < 1 or b not in reach[a]:
                continue
            for c in range(graph.n):
                if c in (a, b) or ind[c] < 2 or outd[c] < 1:
                    continue
                if c not in reach[a] or c not in reach[b]:
                    continue
                for d in range(graph.n):
                    if d in (a, b, c) or ind[d] < 2:
                        continue
                    if d not in reach[b] or d not in reach[c]:
                        continue
                    found = _embed(graph, a, b, c, d, reach, steps)
                    if found is not None:
                        return found
    return None


def _embed(graph, a, b, c, d, reach, steps) -> Optional[WSubdivision]:
    branch = (a, b, c, d)
    for p_ab in _simple_paths(graph, a, b, {c, d}, reach, steps):
        i_ab = set(p_ab[1:-1])
        for p_ac in _simple_paths(graph, a, c, {b, d} | i_ab, reach, steps):
            i_ac = i_ab | set(p_ac[1:-1])
            for p_bc in _simple_paths(graph, b, c, {a, d} | i_ac, reach, steps):
                i_bc = i_ac | set(p_bc[1:-1])
                for p_bd in _simple_paths(graph, b, d, {a, c} | i_bc, reach, steps):
                    i_bd = i_bc | set(p_bd[1:-1])
                    for p_cd in _simple_paths(graph, c, d, {a, b} | i_bd, reach, steps):
                        return WSubdivision(branch=branch, paths={
                            "a->b": p_ab, "a->c": p_ac, "b->c": p_bc,
                            "b->d": p_bd, "c->d": p_cd,
                        })
    return None

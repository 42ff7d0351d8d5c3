"""Directed-graph representation, construction, traversal and serialization.

Vertices are dense integer ids 0..n-1; edges carry stable dense indices
0..m-1 in construction order. Graphs are simple (no self-loops, no parallel
edges) and immutable after construction, so they are safe to share freely.
All iteration orders are ascending by id/index to keep every downstream
computation reproducible.
"""

from __future__ import annotations

import heapq
from itertools import chain
from operator import index
from typing import Iterable, Iterator, Optional

from .errors import EdgeListParseError

# Largest vertex count an edge-list header may declare. Scans over
# range(n) and the first build of the adjacency lists cost time and memory
# linear in the declared n, so an unchecked header would let a few bytes of
# input claim gigabytes.
MAX_HEADER_VERTICES = 1_000_000


class _InvalidEdge(ValueError):
    """An edge the constructor rejects: its position in the input and the
    reason, worded as an edge-list parse error reports it."""

    def __init__(self, edge: int, reason: str):
        super().__init__(f"edge {edge}: {reason}")
        self.edge = edge
        self.reason = reason


class DirectedGraph:
    """A simple directed graph over vertices 0..n-1.

    `labels` is optional vertex metadata (e.g. generator provenance) and is
    never part of graph identity; `meta` records generator seeds/parameters.
    Instances are immutable after construction and safe to share; `_cache`
    only memoizes derived values (topological order, closures, verdicts),
    which are idempotent to recompute. The adjacency lists `_out` and `_in`
    are likewise built on first use (`_adjacency`), as a DSP solve never
    reads them; building them is idempotent too.
    """

    __slots__ = ("n", "edges", "labels", "meta", "_out", "_in", "_edge_index", "_cache")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]],
                 labels: Optional[dict[int, str]] = None,
                 meta: Optional[dict] = None):
        n = index(n)
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        # One pass: the edge-index dict is also the duplicate check, and its
        # insertion order is the edge order.
        edge_index: dict[tuple[int, int], int] = {}
        for i, (u, v) in enumerate(edges):
            u, v = index(u), index(v)
            if not (0 <= u < n and 0 <= v < n):
                raise _InvalidEdge(i, f"vertex id out of range 0..{n - 1}")
            if u == v:
                raise _InvalidEdge(i, f"self-loop at {u}")
            if edge_index.setdefault((u, v), i) != i:
                raise _InvalidEdge(i, f"duplicate edge ({u}, {v})")
        self.n = n
        self.edges = tuple(edge_index)
        self.labels = dict(labels) if labels else {}
        self.meta = dict(meta) if meta else {}
        self._edge_index = edge_index
        self._cache: dict = {}

    @property
    def m(self) -> int:
        return len(self.edges)

    def _adjacency(self) -> tuple[list[list[tuple[int, int]]], list[list[tuple[int, int]]]]:
        """The lists `_out` and `_in` of (edge index, other end) pairs per
        vertex, ascending by edge index, built on the first call."""
        try:
            return self._out, self._in
        except AttributeError:
            pass
        out: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        inc: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for (u, v), i in self._edge_index.items():
            out[u].append((i, v))
            inc[v].append((i, u))
        self._out, self._in = out, inc
        return out, inc

    # The accessors below read their slot directly and build the lists only
    # when it is unset: a try costs nothing in 3.11 when nothing is raised.
    def out_edges(self, v: int) -> list[tuple[int, int]]:
        """(edge index, head) pairs leaving v, ascending by edge index."""
        try:
            return self._out[v]
        except AttributeError:
            return self._adjacency()[0][v]

    def in_edges(self, v: int) -> list[tuple[int, int]]:
        """(edge index, tail) pairs entering v, ascending by edge index."""
        try:
            return self._in[v]
        except AttributeError:
            return self._adjacency()[1][v]

    def out_degree(self, v: int) -> int:
        try:
            return len(self._out[v])
        except AttributeError:
            return len(self._adjacency()[0][v])

    def in_degree(self, v: int) -> int:
        try:
            return len(self._in[v])
        except AttributeError:
            return len(self._adjacency()[1][v])

    def edge_index(self, u: int, v: int) -> Optional[int]:
        return self._edge_index.get((u, v))

    def has_edge(self, u: int, v: int) -> bool:
        return (u, v) in self._edge_index

    def reachable_from(self, u: int) -> set[int]:
        """Vertices reachable from u via directed edges, including u."""
        return self._search(u, self._adjacency()[0])

    def reaching(self, v: int) -> set[int]:
        """Vertices that reach v via directed edges, including v."""
        return self._search(v, self._adjacency()[1])

    def _search(self, root: int, adjacency: list[list[tuple[int, int]]]) -> set[int]:
        """Vertices found from root by a BFS along `adjacency` (_out or _in)."""
        if not (0 <= root < self.n):
            raise ValueError(f"vertex {root} out of range")
        seen = {root}
        queue = [root]
        for w in queue:  # visits what the loop appends, in BFS order
            for _, x in adjacency[w]:
                if x not in seen:
                    seen.add(x)
                    queue.append(x)
        return seen

    def is_acyclic(self) -> bool:
        return self.topological_order() is not None

    def topological_order(self) -> Optional[list[int]]:
        """A topological order (Kahn, smallest id first), or None if cyclic;
        then the in-degrees the pass left are cached for `find_cycle`."""
        if "topo" not in self._cache:
            out, inc = self._adjacency()
            indeg = [len(tails) for tails in inc]
            ready = [v for v in range(self.n) if indeg[v] == 0]  # ascending, so a heap
            order = []
            while ready:
                v = heapq.heappop(ready)
                order.append(v)
                for _, head in out[v]:
                    indeg[head] -= 1
                    if indeg[head] == 0:
                        heapq.heappush(ready, head)
            self._cache["topo"] = order if len(order) == self.n else None
            if len(order) < self.n:
                self._cache["kahn_left"] = indeg
        return self._cache["topo"]

    def find_cycle(self) -> Optional[list[int]]:
        """A directed cycle as a vertex list in edge direction, or None. A walk
        starts at the smallest vertex Kahn's pass left and steps back to the
        tail of its first in-edge (by edge index) whose tail was also left; the
        cycle starts at the first vertex the walk repeats."""
        if self.topological_order() is not None:
            return None
        indeg = self._cache["kahn_left"]
        inc = self._adjacency()[1]
        v = next(v for v in range(self.n) if indeg[v])
        walk, seen = [], set()
        while v not in seen:
            walk.append(v)
            seen.add(v)
            v = next(tail for _, tail in inc[v] if indeg[tail])
        walk.append(v)
        return walk[:walk.index(v):-1]

    def blocks(self) -> list[tuple[int, ...]]:
        """The blocks (biconnected components) of the underlying undirected
        multigraph, ascending tuples of edge ids ordered by smallest edge, by one
        iterative Hopcroft-Tarjan DFS that keeps no state for edgeless vertices."""
        if "blocks" in self._cache:
            return self._cache["blocks"]
        out, inc = self._adjacency()
        disc, low, found = {}, {}, []  # discovery index and low point per vertex
        stack: list[int] = []  # edges of the blocks still open, in DFS order
        for root in (u for u, _ in self.edges if u not in disc):
            disc[root] = low[root] = len(disc)
            # (vertex, its discovery index, tree edge into it, its incident
            # edges left, stack size below that edge)
            frames = [(root, disc[root], -1, chain(out[root], inc[root]), 0)]
            while frames:
                v, dv, via, incident, mark = frames[-1]
                for e, w in incident:
                    dw = disc.get(w)
                    if dw is None:  # tree edge: descend
                        dw = disc[w] = low[w] = len(disc)
                        frames.append((w, dw, e, chain(out[w], inc[w]), len(stack)))
                        stack.append(e)
                        break
                    if dw < dv and e != via:  # back edge to an ancestor
                        stack.append(e)
                        if dw < low[v]:
                            low[v] = dw
                else:
                    frames.pop()
                    if frames:
                        u, du = frames[-1][:2]
                        lv = low[v]
                        if lv < low[u]:
                            low[u] = lv
                        if lv >= du:  # u separates v's subtree: close its block
                            found.append(tuple(sorted(stack[mark:])))
                            del stack[mark:]
        self._cache["blocks"] = found = sorted(found)
        return found

    def sources(self) -> list[int]:
        """Vertices with in-degree 0, ascending."""
        heads = {v for _, v in self.edges}
        return [v for v in range(self.n) if v not in heads]

    def sinks(self) -> list[int]:
        """Vertices with out-degree 0, ascending."""
        tails = {u for u, _ in self.edges}
        return [v for v in range(self.n) if v not in tails]

    def __eq__(self, other) -> bool:
        return (isinstance(other, DirectedGraph)
                and self.n == other.n and self.edges == other.edges)

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"DirectedGraph(n={self.n}, m={self.m})"


class EdgeSet:
    """An immutable set of edge indices of a specific host graph."""

    __slots__ = ("m", "indices")

    def __init__(self, indices: Iterable[int], m: int):
        idx = frozenset(map(index, indices))
        if idx and not (0 <= min(idx) and max(idx) < m):
            bad = min(i for i in idx if not 0 <= i < m)
            raise ValueError(f"edge index {bad} out of range for m={m}")
        self.m = m
        self.indices = idx

    @classmethod
    def full(cls, graph: DirectedGraph) -> "EdgeSet":
        return cls(range(graph.m), graph.m)

    @classmethod
    def from_pairs(cls, graph: DirectedGraph, pairs: Iterable[tuple[int, int]]) -> "EdgeSet":
        indices = []
        for u, v in pairs:
            i = graph.edge_index(u, v)
            if i is None:
                raise ValueError(f"no edge ({u}, {v}) in host graph")
            indices.append(i)
        return cls(indices, graph.m)

    def sorted(self) -> list[int]:
        return sorted(self.indices)

    def pairs(self, graph: DirectedGraph) -> list[tuple[int, int]]:
        return [graph.edges[i] for i in self.sorted()]

    def __contains__(self, i: int) -> bool:
        return i in self.indices

    def __iter__(self) -> Iterator[int]:
        return iter(self.sorted())

    def __len__(self) -> int:
        return len(self.indices)

    def __eq__(self, other) -> bool:
        return (isinstance(other, EdgeSet)
                and self.m == other.m and self.indices == other.indices)

    def __hash__(self):
        return hash((self.m, self.indices))

    def __repr__(self):
        return f"EdgeSet({self.sorted()}, m={self.m})"


def _as_sorted_indices(edge_set, m: int) -> list[int]:
    if isinstance(edge_set, EdgeSet):
        if edge_set.m != m:
            raise ValueError(f"edge set is over m={edge_set.m}, host has m={m}")
        return edge_set.sorted()
    return EdgeSet(edge_set, m).sorted()


def ascii_int(text: str) -> int:
    """An integer in the one form every number the CLI reads takes, ASCII
    `-?[0-9]+`; raises ValueError where int() would also read "1_0", "+1",
    " 1" or non-ASCII digits."""
    if text.isdigit() and text.isascii() or (
            text[:1] == "-" and text[1:].isdigit() and text.isascii()):
        return int(text)
    raise ValueError(f"not an integer (-?[0-9]+): {text!r}")


def parse_edge_list(text: str) -> DirectedGraph:
    """Parse the edge-list format: header "n m", then m lines "tail head".

    Lines starting with '#' are ignored. Fields are integers (`ascii_int`).
    Errors name the offending 1-based line of the original text. A header
    declaring more than MAX_HEADER_VERTICES vertices is rejected on its own
    line. The edges themselves are checked by the DirectedGraph constructor,
    whose rejection is reported at the edge's line.
    """
    header: Optional[tuple[int, int]] = None
    header_line = 0
    edges: list[tuple[int, int]] = []
    edge_lines: list[int] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0][0] == "#":
            continue
        if len(parts) != 2:
            raise EdgeListParseError(line_no, f"expected two fields, got {len(parts)}")
        x, y = parts
        try:
            a, b = ascii_int(x), ascii_int(y)
        except ValueError:
            raise EdgeListParseError(line_no, f"non-integer field in {raw.strip()!r}") from None
        if header is None:
            if a < 0 or b < 0:
                raise EdgeListParseError(line_no, "negative count in header")
            if a > MAX_HEADER_VERTICES:
                raise EdgeListParseError(
                    line_no, f"header vertex count {a} exceeds the limit of {MAX_HEADER_VERTICES}")
            header = (a, b)
            header_line = line_no
            continue
        edges.append((a, b))
        edge_lines.append(line_no)
    if header is None:
        raise EdgeListParseError(1, "missing 'n m' header")
    n, m = header
    if len(edges) != m:
        raise EdgeListParseError(header_line,
                                 f"header promises {m} edges, found {len(edges)}")
    try:
        return DirectedGraph(n, edges)
    except _InvalidEdge as err:
        # a repeat of an earlier edge, which passed the other checks, is a duplicate
        first = edges.index(edges[err.edge])
        where = f", first on line {edge_lines[first]}" if first < err.edge else ""
        raise EdgeListParseError(edge_lines[err.edge], err.reason + where) from None


def to_edge_list(graph: DirectedGraph) -> str:
    """Serialize to the edge-list format; parse(to_edge_list(g)) == g."""
    lines = [f"{graph.n} {graph.m}"]
    lines.extend(f"{u} {v}" for u, v in graph.edges)
    return "\n".join(lines) + "\n"


def to_dot(graph: DirectedGraph, highlight: "EdgeSet | Iterable[int] | None" = None) -> str:
    """Render as a DOT digraph, one edge statement per line in index order.

    Highlighted edges get a red color attribute. Output is byte-deterministic
    for a fixed input.
    """
    marked = set(_as_sorted_indices(highlight, graph.m)) if highlight is not None else set()
    lines = ["digraph {"]
    for v in sorted(graph.labels):
        lines.append(f'  {v} [label="{graph.labels[v]}"];')
    for i, (u, v) in enumerate(graph.edges):
        attr = " [color=red]" if i in marked else ""
        lines.append(f"  {u} -> {v}{attr};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def induced_on_edges(graph: DirectedGraph, indices: Iterable[int]) -> tuple[DirectedGraph, list[int]]:
    """Subgraph on the given edges restricted to their incident vertices.

    Returns the relabeled graph plus the list mapping new vertex ids back to
    original ids (sorted ascending, so the relabeling is deterministic).
    """
    idx = sorted(set(indices))
    verts = sorted({w for i in idx for w in graph.edges[i]})
    vmap = {w: k for k, w in enumerate(verts)}
    sub = DirectedGraph(len(verts), [(vmap[graph.edges[i][0]], vmap[graph.edges[i][1]]) for i in idx])
    return sub, verts

"""Shared hypothesis strategies for graph property tests."""

from hypothesis import strategies as st

from mcps import DirectedGraph
from mcps.generators import gen_random_dsp, gen_random_lsp


@st.composite
def digraphs(draw, max_n: int = 6, max_m: int = 10, acyclic: bool = False):
    """Small simple digraphs; with acyclic=True edges go low id -> high id."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(n)
             if u != v and (not acyclic or u < v)]
    if not pairs:
        return DirectedGraph(n, [])
    edges = draw(st.lists(st.sampled_from(pairs), unique=True,
                          max_size=min(max_m, len(pairs))))
    return DirectedGraph(n, sorted(edges))


@st.composite
def dsp_graphs(draw, max_edges: int = 12):
    seed = draw(st.integers(min_value=0, max_value=10**6))
    target = draw(st.integers(min_value=1, max_value=max_edges))
    return gen_random_dsp(seed, target)


@st.composite
def lsp_graphs(draw, max_blocks: int = 3, block_hi: int = 6):
    seed = draw(st.integers(min_value=0, max_value=10**6))
    blocks = draw(st.integers(min_value=1, max_value=max_blocks))
    return gen_random_lsp(seed, blocks=blocks, block_edges=(2, block_hi),
                          cyclic_prob=0.4, bipartite_prob=0.2)


@st.composite
def near_miss_dsps(draw, lo: int = 60, hi: int = 200):
    """A random DSP plus one to three new forward edges (tail before head in
    a topological order), so it stays acyclic and usually fails P1 or P2."""
    g = gen_random_dsp(draw(st.integers(min_value=0, max_value=10**6)),
                       draw(st.integers(min_value=lo, max_value=hi)))
    order = g.topological_order()
    forward = st.integers(0, g.n - 2).flatmap(
        lambda i: st.tuples(st.just(order[i]), st.sampled_from(order[i + 1:])))
    extra = draw(st.sets(forward.filter(lambda e: e not in g.edges), min_size=1, max_size=3))
    return DirectedGraph(g.n, g.edges + tuple(sorted(extra)))

"""Metamorphic relations of the exact solvers: the objective and mcps_star
do not depend on vertex names or edge order, and the objective does not
decrease as the retention ratio grows."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcps import DirectedGraph, is_lsp, solve_dsp, solve_lsp
from mcps.generators import fixtures, gen_random_lsp

from strategies import dsp_graphs, lsp_graphs
from test_acceptance import ALPHAS
from test_lsp_decomposition import _has_bipartite_block


def _relabeled(g, rng):
    """A random vertex relabeling of g with its edges in a random order."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) for u, v in g.edges]
    rng.shuffle(edges)
    return DirectedGraph(g.n, edges)


def _check_relations(g, solver, rng):
    alphas = sorted(ALPHAS)
    base = [solver(g, alpha) for alpha in alphas]
    objectives = [sol.objective for sol in base]
    assert objectives == sorted(objectives), objectives
    for _ in range(2):
        h = _relabeled(g, rng)
        for alpha, sol in zip(alphas, base):
            other = solver(h, alpha)
            assert (other.objective, other.mcps_star) == (sol.objective, sol.mcps_star), \
                (g.edges, h.edges, str(alpha))


@settings(max_examples=40, deadline=None)
@given(dsp_graphs(max_edges=40), st.randoms(use_true_random=False))
def test_dsp_relations(g, rng):
    _check_relations(g, solve_dsp, rng)


@settings(max_examples=40, deadline=None)
@given(lsp_graphs(max_blocks=4, block_hi=8), st.randoms(use_true_random=False))
def test_lsp_relations(g, rng):
    _check_relations(g, solve_lsp, rng)


def test_cyclic_and_bipartite_lsp_relations():
    graphs = [gen_random_lsp(seed, blocks=4, block_edges=(4, 9), cyclic_prob=0.5,
                             bipartite_prob=0.5) for seed in range(16)]
    assert sum(1 for g in graphs if not g.is_acyclic()) >= 5
    assert sum(1 for g in graphs if _has_bipartite_block(g)) >= 5
    rng = random.Random(16)
    for g in graphs:
        _check_relations(g, solve_lsp, rng)


@pytest.mark.parametrize("name", sorted(name for name, g in fixtures().items()
                                         if is_lsp(g).is_lsp))
def test_fixture_relations(name):
    _check_relations(fixtures()[name], solve_lsp, random.Random(name))

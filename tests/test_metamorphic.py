"""Metamorphic relations of the exact solvers: the objective and mcps_star
do not depend on vertex names or edge order, the objective does not
decrease as the retention ratio grows, and one edge that takes an LSP out
of the class hands it to the oracle with the oracle's optimum."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcps import DirectedGraph, is_lsp, oracle, solve, solve_dsp, solve_lsp
from mcps.generators import (SetCoverInstance, build_reduction, fixtures, gen_random_dsp,
                             gen_random_lsp)

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


def _near_miss(g, rng):
    """g plus the first edge, in a random order of the missing pairs, that
    breaks P1 or P2; None when every added edge keeps g an LSP."""
    present = set(g.edges)
    missing = [(u, v) for u in range(g.n) for v in range(g.n)
               if u != v and (u, v) not in present]
    rng.shuffle(missing)
    for edge in missing:
        h = DirectedGraph(g.n, [*g.edges, edge])
        if not is_lsp(h).is_lsp:
            return h
    return None


def _near_miss_bases():
    """Oracle-sized LSPs (m <= 15) from every generator family and fixture;
    the Set-Cover reductions this small are the ones on a one-item universe."""
    families = {
        "dsp": lambda seed: gen_random_dsp(seed, 4 + seed % 9),
        "lsp-plain": lambda seed: gen_random_lsp(seed, blocks=3, block_edges=(2, 5),
                                                 cyclic_prob=0.0, bipartite_prob=0.0),
        "lsp-cyclic": lambda seed: gen_random_lsp(seed, blocks=3, block_edges=(2, 5),
                                                  cyclic_prob=1.0, bipartite_prob=0.0),
        "lsp-bipartite": lambda seed: gen_random_lsp(seed, blocks=2, block_edges=(2, 5),
                                                     cyclic_prob=0.0, bipartite_prob=1.0),
    }
    bases = [("fixture", g) for _, g in sorted(fixtures().items())
             if g.m <= 15 and is_lsp(g).is_lsp]
    for family, make in families.items():
        graphs = [g for g in map(make, range(40)) if g.m <= 15]
        assert len(graphs) >= 5, family
        bases += [(family, g) for g in graphs[:5]]
    covers = [(SetCoverInstance(1, (frozenset({0}),)), 1),
              (SetCoverInstance(1, (frozenset({0}), frozenset({0}))), 1),
              (SetCoverInstance(1, (frozenset({0}),)), 2)]
    for sc, p in covers:
        g = build_reduction(sc, p=p).graph
        assert g.m <= 15 and is_lsp(g).is_lsp
        bases.append(("setcover", g))
    return bases


def test_near_miss_lsps_go_to_the_oracle():
    rng = random.Random(2024)
    broken = {"p1": 0, "p2": 0}
    families = set()
    for family, g in _near_miss_bases():
        for alpha in ALPHAS:
            assert solve_lsp(g, alpha).objective == \
                oracle.brute_force_mcps(g, alpha).objective, (family, g.edges, str(alpha))
        h = _near_miss(g, rng)
        if h is None:
            continue  # e.g. a directed cycle stays an LSP under any one chord
        verdict = is_lsp(h)
        assert not verdict.is_lsp and h.m <= 16
        broken["p1" if verdict.p1_witness else "p2"] += 1
        families.add(family)
        for alpha in ALPHAS:
            sol = solve(h, alpha)
            assert sol.algorithm == "oracle", (family, h.edges)
            assert sol.objective == oracle.brute_force_mcps(h, alpha).objective, \
                (family, h.edges, str(alpha))
    assert broken["p1"] >= 5 and broken["p2"] >= 5, broken
    assert families == {"fixture", "dsp", "lsp-plain", "lsp-cyclic", "lsp-bipartite",
                        "setcover"}

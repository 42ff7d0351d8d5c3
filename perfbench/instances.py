"""Instance specs and their construction.

A spec is a small JSON-able dict naming a generator family and its
parameters. `build` turns it into edge-list text through the library's own
generators and serialiser, which is the work the benchmark times as set-up.
`expected.json` stores specs together with the outputs they must produce.
"""

from __future__ import annotations

import hashlib
import json

from mcps import generators
from mcps.graphs import DirectedGraph, to_edge_list


def fingerprint(text: str) -> str:
    """Short content hash of an edge list, to detect generator drift."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _graph(spec: dict) -> tuple[DirectedGraph, dict]:
    family = spec["family"]
    extra: dict = {}
    if family == "dsp":
        graph = generators.gen_random_dsp(spec["seed"], spec["edges"])
    elif family == "lsp":
        graph = generators.gen_random_lsp(
            spec["seed"], blocks=spec["blocks"], block_edges=tuple(spec["block_edges"]),
            cyclic_prob=spec["cyclic_prob"], bipartite_prob=spec["bipartite_prob"])
    elif family == "near-miss":
        base = generators.gen_random_dsp(spec["seed"], spec["edges"])
        graph = DirectedGraph(base.n, list(base.edges) + [tuple(e) for e in spec["extra"]])
    elif family == "general":
        graph = DirectedGraph(spec["n"], [tuple(e) for e in spec["arcs"]])
    elif family == "fixture":
        graph = generators.fixtures()[spec["name"]]
    elif family == "setcover":
        sc = generators.SetCoverInstance(
            spec["universe"], tuple(frozenset(s) for s in spec["sets"]))
        art = generators.build_reduction(sc, p=spec["p"])
        cover = generators.brute_force_set_cover(sc)
        chosen = generators.sc_to_mcps_solution(art, cover)
        graph = art.graph
        extra["solution"] = json.dumps({"edges": [list(e) for e in chosen.pairs(graph)]})
    else:
        raise ValueError(f"unknown instance family {family!r}")
    return graph, extra


def build(spec: dict) -> tuple[str, dict]:
    """(edge-list text, extra files) for a spec. The only extra file is the
    Set-Cover-derived solution of a reduction instance."""
    graph, extra = _graph(spec)
    return to_edge_list(graph), extra

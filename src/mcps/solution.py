"""Solver output: a chosen edge subset plus provenance stats."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .flow import RetentionRatio
from .graphs import DirectedGraph, EdgeSet


@dataclass(frozen=True)
class Solution:
    """An edge subset with the algorithm that produced it.

    `alpha` is None for minimum-equivalent-digraph mode, where the
    requirement is reachability preservation (solved at alpha = 1/(m+2)).
    `objective` is the number of edges. `mcps_star` is the objective minus
    the minimum-equivalent-digraph size when that size is known, else None.
    """

    edges: EdgeSet
    algorithm: str  # "dsp" | "lsp" | "oracle" | "med"
    alpha: Optional[RetentionRatio]
    mcps_star: Optional[int]

    @property
    def objective(self) -> int:
        return len(self.edges)

    def to_json_dict(self, graph: DirectedGraph) -> dict:
        return {
            "algorithm": self.algorithm,
            "alpha": str(self.alpha) if self.alpha is not None else None,
            "objective": self.objective,
            "mcps_star": self.mcps_star,
            "edges": [[u, v] for u, v in self.edges.pairs(graph)],
        }

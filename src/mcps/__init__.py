"""Minimum capacity-preserving subgraphs of directed unit-capacity graphs.

Exact solvers on two-terminal series-parallel (DSP) and laminar
series-parallel (LSP) digraphs, brute-force oracles for small general
graphs, class recognizers, instance generators, and a CLI front end.
"""

from .errors import (BudgetExceededError, EdgeListParseError, McpsError,
                     NotDspError, NotLspError)
from .flow import (CoverageReport, RetentionRatio, Violation, check_all_pairs,
                   is_covered, max_flow_value)
from .graphs import (DirectedGraph, EdgeSet, induced_on_edges, parse_edge_list,
                     to_dot, to_edge_list)
from .lsp import (LspVerdict, check_p1, check_p2, eas_family, is_lsp,
                  meas_partition, path_induced, subdivide)
from .solution import Solution
from .solver import (extract_mscs_or_hamiltonian, mcps_star_value, solve,
                     solve_dsp, solve_lsp, solve_med)
from .spdecomp import DecompositionTree, NotDspWitness, recognize_dsp
from ._wsearch import WSubdivision, find_w_subdivision_graph as find_w_subdivision

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError", "EdgeListParseError", "McpsError", "NotDspError",
    "NotLspError", "CoverageReport", "RetentionRatio", "Violation",
    "check_all_pairs", "is_covered", "max_flow_value", "DirectedGraph",
    "EdgeSet", "induced_on_edges",
    "parse_edge_list", "to_dot", "to_edge_list", "LspVerdict",
    "check_p1", "check_p2", "eas_family", "find_w_subdivision", "is_lsp",
    "meas_partition", "path_induced", "subdivide", "Solution",
    "extract_mscs_or_hamiltonian", "mcps_star_value", "solve", "solve_dsp",
    "solve_lsp", "solve_med", "DecompositionTree", "NotDspWitness",
    "recognize_dsp", "WSubdivision",
]

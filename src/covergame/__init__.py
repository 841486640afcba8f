"""Exact minimum-weight edge covers and stable cost allocations for edge
cover games.

Everything runs in exact rational arithmetic: integral covers by branch
and bound, fractional and half-integral covers through an exact simplex
solver, per-instance integrality gaps from shortest odd cycles, stable
allocations from the dual packing program, and naive brute-force oracles
that certify all of it at desk scale.
"""

from .covers import (
    CoverCertificate,
    EdgeVector,
    canonicalize_to_odd_cycles,
    cover_weight,
    fractional_support_cycles,
    half_integral_cover,
    is_feasible_cover,
    is_half_integral,
    min_edge_cover_exact,
)
from .errors import CapExceededError
from .game import (
    Allocation,
    AllocationReport,
    GapReport,
    allocate_alpha_core,
    check_core_dual,
    check_core_stars,
    coalition_cost,
    exact_best_ratio,
    integrality_gap,
    parse_allocation,
    verify_scaled_cover_membership,
)
from .graphs import (
    BipartitenessReport,
    DoubledGraph,
    Edge,
    GraphFormatError,
    OddCycleReport,
    WeightedGraph,
    boundary,
    coalition,
    double_graph,
    edge_key,
    edges_within,
    is_bipartite,
    load_graph,
    parse_graph,
    shortest_odd_cycle,
    star_edges,
)
from .lp import (
    Constraint,
    LinearProgram,
    LpSolution,
    dual_packing_lp,
    fractional_cover_lp,
    solve,
)
from .oracle import (
    OracleBudget,
    brute_core_check,
    brute_fractional_optimum,
    brute_min_cover,
)
from .rationals import format_rational, parse_rational

__version__ = "0.1.0"

__all__ = [
    "Allocation",
    "AllocationReport",
    "BipartitenessReport",
    "CapExceededError",
    "Constraint",
    "CoverCertificate",
    "DoubledGraph",
    "Edge",
    "EdgeVector",
    "GapReport",
    "GraphFormatError",
    "LinearProgram",
    "LpSolution",
    "OddCycleReport",
    "OracleBudget",
    "WeightedGraph",
    "allocate_alpha_core",
    "boundary",
    "brute_core_check",
    "brute_fractional_optimum",
    "brute_min_cover",
    "canonicalize_to_odd_cycles",
    "check_core_dual",
    "check_core_stars",
    "coalition",
    "coalition_cost",
    "cover_weight",
    "double_graph",
    "dual_packing_lp",
    "edge_key",
    "edges_within",
    "exact_best_ratio",
    "format_rational",
    "fractional_cover_lp",
    "fractional_support_cycles",
    "half_integral_cover",
    "integrality_gap",
    "is_bipartite",
    "is_feasible_cover",
    "is_half_integral",
    "load_graph",
    "min_edge_cover_exact",
    "parse_allocation",
    "parse_graph",
    "parse_rational",
    "shortest_odd_cycle",
    "solve",
    "star_edges",
    "verify_scaled_cover_membership",
]

"""Exact minimum-weight edge covers and stable cost allocations for edge
cover games.

Everything runs in exact rational arithmetic: integral covers by branch
and bound, the grand coalition cost by a blossom matching, fractional and
half-integral covers through an exact simplex solver, per-instance
integrality gaps from shortest odd cycles, stable allocations from the
dual packing program, and naive brute-force oracles that certify all of
it at desk scale.

The public names below load on first use: ``covergame.solve`` imports
the LP module when it is first read, so a program that computes no cover
and solves no LP never imports it, and one that calls no oracle never
imports the oracles.

The result records (``CoverCertificate``, ``GapReport``, ``OddCycleReport``,
``LpSolution``, ``OracleBudget``, ``Constraint`` and ``LinearProgram``) are
NamedTuples: they unpack, index and compare equal to a plain tuple of their
fields, and ``record._replace(field=value)`` builds a changed copy, still
checked for the two whose constructors check their fields.
``AllocationReport`` alone is a frozen dataclass, changed with
``dataclasses.replace``; its module, ``allocation``, is the only one that
imports ``dataclasses``, and loads only when ``allocate_alpha_core`` runs
(the CLI loads neither).
"""

from importlib import import_module

__version__ = "0.7.4"

# Each public name and the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "allocation": "AllocationReport",
        "covers": """CoverCertificate EdgeVector canonicalize_to_odd_cycles cover_weight
            fractional_support_cycles half_integral_cover is_feasible_cover
            is_half_integral min_edge_cover_exact""",
        "game": """Allocation GapReport allocate_alpha_core check_core_dual check_core_stars
            coalition_cost exact_best_ratio integrality_gap parse_allocation
            verify_scaled_cover_membership""",
        "graphs": """CapExceededError Edge GraphFormatError OddCycleReport
            WeightedGraph coalition double_graph edge_key load_graph parse_graph
            shortest_odd_cycle""",
        "lp": "Constraint LinearProgram LpSolution dual_packing_lp fractional_cover_lp solve",
        "oracle": "OracleBudget brute_core_check brute_fractional_optimum brute_min_cover",
        "rationals": "format_rational parse_rational",
    }.items()
    for name in names.split()
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    # Not cached here, so a name always reads its submodule's current
    # binding, also while that binding is patched.
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)

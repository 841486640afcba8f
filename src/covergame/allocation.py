"""The dual-based allocation of the edge cover game, with its guaranteed
and achieved fractions of the grand coalition cost.

``AllocationReport`` is the package's one dataclass, because callers build
variants of it with ``dataclasses.replace`` (the benchmark's self-tests
do); every other record is a NamedTuple. So this is the one module that
imports ``dataclasses``, and only code that allocates loads it."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .covers import _optimal_packing
from .game import Allocation, coalition_cost, integrality_gap
from .graphs import EXACT_CANDIDATE_CAP, CapExceededError, WeightedGraph


@dataclass(frozen=True)
class AllocationReport:
    """A stable allocation with its guaranteed and achieved fractions of
    the grand coalition cost; cost fields are None when the exact cover
    solver cap was exceeded."""

    allocation: Allocation
    alpha: Fraction
    total: Fraction
    grand_cost: Fraction | None
    ratio: Fraction | None


def allocate_alpha_core(
    g: WeightedGraph, *, max_candidate_edges: int = EXACT_CANDIDATE_CAP
) -> AllocationReport:
    """Allocation from an optimal dual packing solution.

    Packing feasibility is the core property coalition by coalition, and
    the total equals the fractional covering optimum (``solve`` certifies
    both by the LP dual, a fractional cover of equal weight). That total is
    at least ell/(ell+1) of the integral grand cost because the
    integrality gap is 1 + 1/ell (ell the shortest odd cycle length); on
    bipartite graphs the total matches the grand cost exactly. Both bounds
    are asserted whenever the grand cost is within the cap.
    """
    allocation, total = _optimal_packing(g)
    gap = integrality_gap(g)
    alpha = 1 / gap.rho

    try:
        grand = coalition_cost(g, g.vertices(), max_candidate_edges=max_candidate_edges)
    except CapExceededError:
        grand = None
    ratio = None
    if grand is not None:
        if total < alpha * grand:
            raise RuntimeError("allocation misses the guaranteed fraction of the grand cost")
        if gap.ell is None and total != grand:
            raise RuntimeError("bipartite allocation total must equal the grand cost")
        if grand:
            ratio = total / grand
    return AllocationReport(allocation, alpha, total, grand, ratio)

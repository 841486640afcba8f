"""Brute-force reference implementations.

These are deliberately naive, share no optimization logic with the fast
paths they certify, and refuse instances beyond small budgets. The CLI
exposes them behind --exhaustive; the test suite uses them as oracles.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .game import _validated_allocation
from .graphs import CapExceededError, WeightedGraph, coalition
from .rationals import ZERO


class _OracleBudgetFields(NamedTuple):
    max_cover_edges: int
    max_coalition_vertices: int


class OracleBudget(_OracleBudgetFields):
    __slots__ = ()

    def __new__(cls, max_cover_edges=20, max_coalition_vertices=12):
        if min(max_cover_edges, max_coalition_vertices) <= 0:
            raise ValueError("oracle budgets must be positive")
        return super().__new__(cls, max_cover_edges, max_coalition_vertices)

    @classmethod
    def _make(cls, fields):  # so ``_replace`` checks as well
        return cls(*fields)


DEFAULT_BUDGET = OracleBudget()

# Most edges whose 3^m grid points ``brute_fractional_optimum`` walks.
GRID_EDGE_CAP = 12


def brute_min_cover(
    g: WeightedGraph, members: Iterable[int], budget: OracleBudget = DEFAULT_BUDGET
) -> Fraction:
    """Minimum cover weight over all 2^m subsets of the candidate edges.

    Subsets are walked in Gray-code order, flipping one edge per step, so
    the running weight and per-vertex hit counts stay exact with O(1)
    bookkeeping while still visiting every subset (no pruning).
    """
    s = coalition(g, members)
    candidates = [e for e in g.edges if e[0] in s or e[1] in s]
    k = len(candidates)
    if k > budget.max_cover_edges:
        raise CapExceededError(
            f"{k} candidate edges exceed the oracle budget of {budget.max_cover_edges}"
        )
    weights = [g.weight(*e) for e in candidates]
    covered = [tuple(v for v in e if v in s) for e in candidates]

    hits = {v: 0 for v in s}
    uncovered = len(s)
    weight = ZERO
    chosen = [False] * k
    best: Fraction | None = None
    for step in range(1, 1 << k):
        i = (step & -step).bit_length() - 1
        if chosen[i]:
            chosen[i] = False
            weight -= weights[i]
            for v in covered[i]:
                hits[v] -= 1
                if hits[v] == 0:
                    uncovered += 1
        else:
            chosen[i] = True
            weight += weights[i]
            for v in covered[i]:
                if hits[v] == 0:
                    uncovered -= 1
                hits[v] += 1
        if uncovered == 0 and (best is None or weight < best):
            best = weight
    if best is None:
        raise RuntimeError("no covering subset found despite minimum degree one")
    return best


def brute_fractional_optimum(g: WeightedGraph) -> Fraction:
    """Minimum fractional cover weight over the full {0, 1/2, 1}^m grid.

    Valid as an LP oracle because some optimal fractional cover is
    half-integral. The grid is walked scaled by 2, as integers in {0, 1, 2},
    so coverage is an integer test; only feasible points are weighed in
    Fractions, and the best weight is halved at the end.
    """
    m = g.edge_count
    if m > GRID_EDGE_CAP:
        raise CapExceededError(f"{m} edges exceed the grid oracle budget of {GRID_EDGE_CAP}")
    incident = [
        tuple(j for j, e in enumerate(g.edges) if v in e) for v in range(g.vertex_count)
    ]
    weights = [g.weight(*e) for e in g.edges]
    best: Fraction | None = None
    for point in itertools.product((0, 1, 2), repeat=m):
        if all(sum(point[j] for j in edges) >= 2 for edges in incident):
            weight = sum(w * x for w, x in zip(weights, point) if x)
            if best is None or weight < best:
                best = weight
    assert best is not None  # the all-ones point is always feasible
    return Fraction(best) / 2


def brute_core_check(
    g: WeightedGraph,
    allocation: Sequence[Fraction],
    budget: OracleBudget = DEFAULT_BUDGET,
) -> tuple[bool, frozenset[int] | None]:
    """Check a(S) <= c(S) for every nonempty coalition S, exhaustively.

    Coalition costs come from brute_min_cover. Returns the first violating
    coalition in mask order, if any.
    """
    n = g.vertex_count
    if n > budget.max_coalition_vertices:
        raise CapExceededError(
            f"{n} vertices exceed the coalition oracle budget of {budget.max_coalition_vertices}"
        )
    values = _validated_allocation(g, allocation)
    for mask in range(1, 1 << n):
        members = [v for v in range(n) if mask >> v & 1]
        total = sum(values[v] for v in members)
        if total > brute_min_cover(g, members, budget):
            return False, frozenset(members)
    return True, None

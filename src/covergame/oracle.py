"""Brute-force reference implementations.

These are deliberately naive, share no optimization logic with the fast
paths they certify, and refuse instances beyond small fixed budgets:
``DEFAULT_BUDGET``, an ``OracleBudget`` of 20 cover edges and 12
coalition vertices, and ``GRID_EDGE_CAP`` = 12 edges for the {0, 1/2, 1}
grid. Every walk is exhaustive, with no pruning: it visits every subset,
grid point or coalition. The two cover walks go in Gray-code order, one
coordinate changing per step, so each step updates the running weight
and the per-vertex counts in amortized O(1): ``brute_min_cover`` over
2^m subsets in Fractions, ``brute_fractional_optimum`` over 3^m grid
points in ints, its loads in halves and its weights over the LCM of their
denominators. They import from the package only its graphs, rationals
and the allocation check of ``game``, never ``covers``, ``lp`` or
``matching``. The CLI loads this module only for verify --exhaustive;
the test suite uses them as oracles.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .game import _validated_allocation
from .graphs import CapExceededError, WeightedGraph, coalition
from .rationals import ZERO


class OracleBudget(NamedTuple):
    """The fixed budgets: most candidate edges whose 2^m subsets
    ``brute_min_cover`` walks, and most vertices whose coalitions
    ``brute_core_check`` walks."""

    max_cover_edges: int = 20
    max_coalition_vertices: int = 12


DEFAULT_BUDGET = OracleBudget()

# Most edges whose 3^m grid points ``brute_fractional_optimum`` walks.
GRID_EDGE_CAP = 12


def brute_min_cover(g: WeightedGraph, members: Iterable[int]) -> Fraction:
    """Minimum cover weight over all 2^m subsets of the candidate edges.

    Subsets are walked in Gray-code order, flipping one edge per step, so
    the running weight and per-vertex hit counts stay exact with O(1)
    bookkeeping while still visiting every subset (no pruning).
    """
    s = coalition(g, members)
    candidates = [(e, w) for e, w in zip(g.edges, g.weights) if e[0] in s or e[1] in s]
    k = len(candidates)
    cap = DEFAULT_BUDGET.max_cover_edges
    if k > cap:
        raise CapExceededError(f"{k} candidate edges exceed the oracle budget of {cap}")
    weights = [w for _, w in candidates]
    covered = [tuple(v for v in e if v in s) for e, _ in candidates]

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
    half-integral. The grid is walked scaled by 2, each coordinate in
    {0, 1, 2}, in reflected ternary Gray-code order (Knuth, TAOCP 4A
    7.2.1.1): from the all-zero point, each of the 3^m - 1 steps moves one
    coordinate by +1 or -1. The step reverses the direction of each low
    coordinate that cannot move, then moves the first one that can. So the
    walk keeps, with amortized O(1) work per step, each vertex's load in
    halves, the count of vertices whose load is below 2, and the running
    weight as an int over L, the LCM of the weight denominators. A point
    is a cover when that count is 0. Every point is visited (no pruning),
    and the best weight is returned as best / 2L.
    """
    m = g.edge_count
    if m > GRID_EDGE_CAP:
        raise CapExceededError(f"{m} edges exceed the grid oracle budget of {GRID_EDGE_CAP}")
    lcm = math.lcm(*(w.denominator for w in g.weights))
    scaled = [w.numerator * (lcm // w.denominator) for w in g.weights]

    point = [0] * m
    direction = [1] * m
    load = [0] * g.vertex_count
    below = g.vertex_count  # vertices with load < 2
    weight = 0
    best: int | None = None
    for _ in range(3**m - 1):
        j = 0
        while point[j] == 1 + direction[j]:  # at 2 moving up, or at 0 moving down
            direction[j] = -direction[j]
            j += 1
        u, v = g.edges[j]
        if direction[j] > 0:
            point[j] += 1
            weight += scaled[j]
            load[u] += 1
            load[v] += 1
            below -= (load[u] == 2) + (load[v] == 2)
        else:
            point[j] -= 1
            weight -= scaled[j]
            below += (load[u] == 2) + (load[v] == 2)
            load[u] -= 1
            load[v] -= 1
        if not below and (best is None or weight < best):
            best = weight
    assert best is not None  # the all-ones point is always a cover
    return Fraction(best, 2 * lcm)


def brute_core_check(
    g: WeightedGraph, allocation: Sequence[Fraction]
) -> tuple[bool, frozenset[int] | None]:
    """Check a(S) <= c(S) for every nonempty coalition S, exhaustively.

    Coalition costs come from brute_min_cover. Returns the first violating
    coalition in mask order, if any.
    """
    n = g.vertex_count
    cap = DEFAULT_BUDGET.max_coalition_vertices
    if n > cap:
        raise CapExceededError(f"{n} vertices exceed the coalition oracle budget of {cap}")
    values = _validated_allocation(g, allocation)
    for mask in range(1, 1 << n):
        members = [v for v in range(n) if mask >> v & 1]
        total = sum(values[v] for v in members)
        if total > brute_min_cover(g, members):
            return False, frozenset(members)
    return True, None

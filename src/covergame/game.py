"""The edge cover game: coalition costs, stability checkers in integer
arithmetic, the per-instance integrality gap (the one place that computes
rho = 1 + 1/ell), the dual-based allocation with its ell/(ell+1) and
bipartite bounds, and odd-set membership verification. The functions that
compute a cover import ``covers`` when they run, so the checkers and the
gap load no cover or LP code. ``allocate_alpha_core`` takes the grand
cost c(V) from ``matching``, Edmonds' blossom algorithm under Gallai's
reduction, which is polynomial and has no cap, and ``exact_best_ratio``
returns its ratio; only they load ``matching``. Both compute through
``_alpha_core``, which returns the report's fields as a plain tuple, and
only ``allocate_alpha_core`` wraps them in ``allocation``'s dataclass, so
the CLI, which reads the fields, loads no ``dataclasses``.
``coalition_cost`` stays on the branch and bound of ``covers``.

Players are vertices; a coalition pays the cheapest edge set covering its
members, drawn from the edges inside it or crossing its boundary, so every
coalition has a finite cost. An allocation has the core property when no
coalition is charged more than its own cost, which for this game is
equivalent to feasibility for the dual packing LP.

The paper charges S the cheapest edge cover of the induced subgraph G[S]
instead. For nonnegative allocations, the only ones taken here, both cores
are the allocations with a_u + a_v <= w_uv on every edge, and c(V) is the
same because no edge leaves V. So alpha, the allocation, the grand cost,
the ratio and every verdict are the paper's; only the cost of a proper
coalition can differ."""

from __future__ import annotations

from fractions import Fraction
from operator import index
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .graphs import CapExceededError, Edge, WeightedGraph, shortest_odd_cycle
from .rationals import ONE, _echo, _fraction, _parse_integer, _significant_lines, parse_rational

if TYPE_CHECKING:  # covers and allocation load only when they are used
    from .allocation import AllocationReport
    from .covers import EdgeVector

Allocation = tuple[Fraction, ...]

# Most vertices whose 2^n odd sets ``verify_scaled_cover_membership`` walks.
ODD_SET_CAP = 14


def _validated_allocation(g: WeightedGraph, allocation: Sequence[Fraction]) -> Allocation:
    values = tuple(map(_fraction, allocation))
    if len(values) != g.vertex_count:
        raise ValueError(
            f"allocation must assign a value to every vertex "
            f"(expected {g.vertex_count}, got {len(values)})"
        )
    for v, value in enumerate(values):
        if value.numerator < 0:
            raise ValueError(f"allocation for vertex {v} is negative")
    return values


def _numerators_denominators(values: Allocation) -> tuple[list[int], list[int]]:
    return [a.numerator for a in values], [a.denominator for a in values]


def parse_allocation(text: str, vertex_count: int) -> Allocation:
    """Parse an allocation file: one "v p/q" line per vertex, any order;
    "#" comment lines, blank lines and a leading byte-order mark are
    ignored."""
    vertex_count = index(vertex_count)  # a float, a Fraction or a str raises TypeError
    values: dict[int, Fraction] = {}
    for line_no, line in _significant_lines(text):
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {line_no}: expected 'vertex value'")
        try:
            v = _parse_integer(parts[0])
        except ValueError:
            raise ValueError(f"line {line_no}: bad vertex id {_echo(parts[0])}") from None
        if not 0 <= v < vertex_count:
            raise ValueError(f"line {line_no}: vertex {_echo(v)} is out of range")
        if v in values:
            raise ValueError(f"line {line_no}: vertex {v} appears twice")
        try:
            value = parse_rational(parts[1])
        except ValueError:
            raise ValueError(f"line {line_no}: bad rational {_echo(parts[1])}") from None
        if value.numerator < 0:
            raise ValueError(f"line {line_no}: negative allocation for vertex {v}")
        values[v] = value
    for v in range(vertex_count):
        if v not in values:
            raise ValueError(f"missing allocation for vertex {v}")
    return tuple(values[v] for v in range(vertex_count))


def coalition_cost(g: WeightedGraph, members: Iterable[int]) -> Fraction:
    """c(S): the minimum weight of an edge set covering the coalition."""
    from .covers import min_edge_cover_exact

    return min_edge_cover_exact(g, members).weight


def check_core_dual(
    g: WeightedGraph, allocation: Sequence[Fraction]
) -> tuple[bool, Edge | None]:
    """Core property via dual feasibility: a_u + a_v <= w_uv on every edge.

    Compared in integers by cross-multiplication: with a_u = p_u/q_u,
    a_v = p_v/q_v and w_uv = r/s (positive denominators), edge uv is
    violated when (p_u q_v + p_v q_u) s > r q_u q_v. Returns the first
    violated edge in edge order, if any.
    """
    p, q = _numerators_denominators(_validated_allocation(g, allocation))
    for (u, v), w in zip(g.edges, g.weights):
        if (p[u] * q[v] + p[v] * q[u]) * w.denominator > w.numerator * q[u] * q[v]:
            return False, (u, v)
    return True, None


def check_core_stars(
    g: WeightedGraph, allocation: Sequence[Fraction]
) -> tuple[bool, tuple[int, frozenset[int]] | None]:
    """Core property via star inequalities: a(T + v) <= w(delta(v, T)) for
    every center v and nonempty neighbor set T.

    Only the worst star per center needs checking: the slack of (v, T) is
    a_v plus the sum of the margins a_u - w_uv over T, which is maximized
    by taking exactly the neighbors with positive margin, or the single
    best neighbor when no margin is positive (T must be nonempty). Since
    a_v >= 0, any positive margin violates the star. Otherwise the best
    neighbor is the one of largest margin, ties going to the lowest id,
    and the star is violated when a_v plus its margin is positive. Margins
    are compared in integers by cross-multiplication: with a_u = p_u/q_u
    and w_uv = r/s, the margin is (p_u s - r q_u) / (q_u s).
    """
    p, q = _numerators_denominators(_validated_allocation(g, allocation))
    # Each vertex's (neighbor, weight) pairs, in one pass over the sorted
    # edges, so each list comes out in increasing neighbor order.
    stars: list[list[tuple[int, Fraction]]] = [[] for _ in range(g.vertex_count)]
    for (a, b), w in zip(g.edges, g.weights):
        stars[a].append((b, w))
        stars[b].append((a, w))
    for v, star in enumerate(stars):
        positive = []
        best_num, best_den, best_u = 0, 0, -1  # best margin; best_den 0 means none yet
        for u, w in star:  # increasing ids, so a tie keeps the lowest
            num = p[u] * w.denominator - w.numerator * q[u]
            den = q[u] * w.denominator
            if num > 0:
                positive.append(u)
            elif not best_den or num * best_den > best_num * den:
                best_num, best_den, best_u = num, den, u
        if positive:
            return False, (v, frozenset(positive))
        if best_num * q[v] + p[v] * best_den > 0:
            return False, (v, frozenset((best_u,)))
    return True, None


class GapReport(NamedTuple):
    """Integrality gap of the covering relaxation on one graph.

    rho = 1 + 1/ell where ell is the shortest odd cycle length, or 1 on
    bipartite graphs. ``cycle`` is one shortest odd cycle, a closed walk
    (first = last). The gap is attained on the subgraph it induces, the
    chordless cycle itself with unit weights; on G, zero-weight edges off
    the cycle can cover its vertices for free."""

    ell: int | None
    rho: Fraction
    cycle: tuple[int, ...] | None


def integrality_gap(g: WeightedGraph) -> GapReport:
    report = shortest_odd_cycle(g)
    if report.length is None:
        return GapReport(None, ONE, None)
    return GapReport(report.length, ONE + Fraction(1, report.length), report.witness)


def _alpha_core(
    g: WeightedGraph,
) -> tuple[Allocation, Fraction, Fraction, Fraction, Fraction | None]:
    """The fields of ``allocate_alpha_core``'s report, in its field order:
    allocation, alpha, total, grand cost and ratio. The CLI reads them
    from here, so an allocate process loads neither ``allocation`` nor
    ``dataclasses``."""
    from .covers import _optimal_packing
    from .matching import gallai_cover

    allocation, total = _optimal_packing(g)
    gap = integrality_gap(g)
    alpha = 1 / gap.rho
    grand = gallai_cover(g)[0]
    if total < alpha * grand:
        raise RuntimeError("allocation misses the guaranteed fraction of the grand cost")
    if gap.ell is None and total != grand:
        raise RuntimeError("bipartite allocation total must equal the grand cost")
    return allocation, alpha, total, grand, total / grand if grand else None


def allocate_alpha_core(g: WeightedGraph) -> AllocationReport:
    """Allocation from an optimal dual packing solution.

    Packing feasibility is the core property coalition by coalition, and
    the total equals the fractional covering optimum (``solve`` certifies
    both by the LP dual, a fractional cover of equal weight). That total is
    at least ell/(ell+1) of the integral grand cost because the
    integrality gap is 1 + 1/ell (ell the shortest odd cycle length); on
    bipartite graphs the total matches the grand cost exactly. The grand
    cost comes from ``matching``'s certified Gallai cover, on every graph,
    and both bounds are asserted.
    """
    from .allocation import AllocationReport

    return AllocationReport(*_alpha_core(g))


def verify_scaled_cover_membership(
    g: WeightedGraph, values: EdgeVector
) -> tuple[bool, frozenset[int] | None]:
    """Check the cover scaled by 1 + 1/ell (1 on bipartite graphs) against
    every odd-set constraint: for each odd-cardinality vertex set U the
    edges touching U must carry scaled total at least ceil(|U|/2). Returns
    the first violated U in mask order, if any. The test is in ints: with
    rho = p/q and t twice the touching total, U is violated when
    p t < 2q ceil(|U|/2).

    On every vector it accepts the answer is (True, None): scaled by
    1 + 1/ell, every feasible half-integral cover meets every odd-set row,
    canonical or not. The touching total of U is at least |U|/2, and
    exactly |U|/2 only if every vertex of U has total 1 and no edge with a
    positive value leaves U. Then U's 1/2-edges form vertex-disjoint cycles
    on an odd number of vertices, so one of them is an odd cycle of length
    at most |U|, and (1 + 1/ell) |U|/2 >= (|U| + 1)/2. The 2^n walk stays
    as an independent check of that fact, sharing no logic with the proof.
    """
    n = g.vertex_count
    if n > ODD_SET_CAP:
        raise CapExceededError(f"{n} vertices exceed the odd-set enumeration cap of {ODD_SET_CAP}")
    from .covers import _validated_half_integral_cover

    x = _validated_half_integral_cover(g, values)
    rho = integrality_gap(g).rho
    p, q = rho.numerator, rho.denominator

    # Twice each nonzero cover value, an int, by the mask of its edge.
    twice = [((1 << u) | (1 << v), int(2 * x[u, v])) for u, v in g.edges if x[u, v]]
    for mask in range(1, 1 << n):
        size = mask.bit_count()
        if size % 2 == 0:
            continue
        # rho * touching < ceil(|U|/2), with t = 2 * touching.
        t = sum(value for emask, value in twice if mask & emask)
        if p * t < 2 * q * ((size + 1) // 2):
            return False, frozenset(v for v in range(n) if mask >> v & 1)
    return True, None


def exact_best_ratio(g: WeightedGraph) -> Fraction:
    """Largest alpha for which this instance admits a stable allocation
    covering alpha of the grand cost: fractional optimum over c(V), the
    ratio of ``allocate_alpha_core``."""
    ratio = _alpha_core(g)[4]
    if ratio is None:
        raise ValueError("grand coalition cost is zero; the ratio is undefined")
    return ratio

"""Minimum-weight edge covers, as plain values that only ``cli`` renders:
exact integral search, half-integral covers folded from one covering LP
(of the graph when it is bipartite, else of its bipartite double), the
optimal packing LP behind every fractional optimum, and the rounding that
leaves only vertex-disjoint odd cycles fractional. Both LPs go through one
checked solve, ``_optimum``.

The rounding has one rule for choosing a walk in the 1/2-valued support,
in which a simple cycle is a flower of one petal, and each pass shifts
the walk the one way that lowers its smallest edge. It traverses the
support with the BFS and the lexicographic shortest path of ``graphs``."""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, NamedTuple

from .graphs import EXACT_CANDIDATE_CAP, CapExceededError, Edge, WeightedGraph, coalition
from .graphs import double_graph, edge_key
from .graphs import _bfs_distances, _lex_shortest_path, _two_coloring  # the shared traversal
from .rationals import HALF, ONE, ZERO, _fraction

if TYPE_CHECKING:  # the LP module loads only when a cover is solved
    from .lp import LinearProgram, LpSolution

# Every half-integral entry this module builds is one of the three shared
# constants, so a vector holds no Fraction of its own per edge.
_SHARED = {x: x for x in (ZERO, HALF, ONE)}

EdgeVector = dict[Edge, Fraction]
_Cycles = tuple[tuple[int, ...], ...]  # closed vertex walks


def __getattr__(name: str):
    # The LP module loads only when a cover is solved: the functions that
    # solve import it. Its names stay readable as attributes of this module.
    if name in ("dual_packing_lp", "fractional_cover_lp", "solve"):
        from . import lp

        return getattr(lp, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class CoverCertificate(NamedTuple):
    """An edge cover with its exact weight and, when available, a dual
    allocation of equal total certifying optimality; ``cli`` renders it."""

    kind: str  # "integral" | "half-integral"
    values: EdgeVector
    weight: Fraction
    dual_witness: tuple[Fraction, ...] | None = None


def cover_weight(g: WeightedGraph, values: EdgeVector) -> Fraction:
    return Fraction(sum(g.weight(*e) * x for e, x in values.items() if _fraction(x)))


def is_feasible_cover(g: WeightedGraph, values: EdgeVector) -> bool:
    """Every vertex carries total incident value at least one."""
    return all(_incident_total(g, values, v) >= 1 for v in g.vertices())


def _incident_total(g: WeightedGraph, values: EdgeVector, v: int) -> Fraction:
    return sum(_fraction(values[edge_key(v, u)]) for u in g.neighbors(v))


def is_half_integral(values: EdgeVector) -> bool:
    return all(_fraction(x) in (ZERO, HALF, ONE) for x in values.values())


def _shared(x: Fraction) -> Fraction:
    """The module constant equal to x when there is one, else x itself."""
    return _SHARED.get(x, x)


def _validated_half_integral_cover(g: WeightedGraph, values: EdgeVector) -> EdgeVector:
    """The vector in Fractions, keeping the caller's Fraction objects.
    Raises ValueError unless it gives every edge a value in {0, 1/2, 1}
    and covers every vertex."""
    x: EdgeVector = {e: _fraction(v) for e, v in values.items()}
    if set(x) != set(g.edges):
        raise ValueError("vector must assign a value to every edge of the graph")
    if not is_half_integral(x):
        raise ValueError("vector is not half-integral")
    if not is_feasible_cover(g, x):
        raise ValueError("vector is not a feasible cover")
    return x


def min_edge_cover_exact(
    g: WeightedGraph,
    members: Iterable[int] | None = None,
    *,
    max_candidate_edges: int = EXACT_CANDIDATE_CAP,
) -> CoverCertificate:
    """Exact minimum-weight cover of a coalition by branch and bound.

    Candidates are the edges inside the coalition plus its boundary; any
    other edge only adds weight. Branching always targets the lowest
    uncovered vertex and tries its covering edges cheapest-first, pruning
    with the admissible bound sum(cheapest incident weight)/2 (each edge
    covers at most two uncovered vertices). First-found optima are kept,
    so the result is deterministic. Too many candidates, or a search too
    deep for the interpreter's stack, raise CapExceededError.
    """
    s = coalition(g, g.vertices() if members is None else members)
    candidates = [e for e in g.edges if e[0] in s or e[1] in s]
    if len(candidates) > max_candidate_edges:
        raise CapExceededError(
            f"{len(candidates)} candidate edges exceed the exact-solver cap of {max_candidate_edges}"
        )

    options = {
        v: sorted((e for e in candidates if v in e), key=lambda e: (g.weight(*e), e))
        for v in sorted(s)
    }
    cheapest = {v: g.weight(*edges[0]) for v, edges in options.items()}

    best_weight: Fraction | None = None
    best_edges: tuple[Edge, ...] | None = None

    def search(uncovered: frozenset[int], chosen: list[Edge], weight: Fraction) -> None:
        nonlocal best_weight, best_edges
        if not uncovered:
            if best_weight is None or weight < best_weight:
                best_weight = weight
                best_edges = tuple(chosen)
            return
        if best_weight is not None:
            if weight + sum(cheapest[v] for v in uncovered) / 2 >= best_weight:
                return
        v = min(uncovered)
        for e in options[v]:
            chosen.append(e)
            search(uncovered - set(e), chosen, weight + g.weight(*e))
            chosen.pop()

    try:
        search(frozenset(s), [], ZERO)
    except RecursionError:  # one level per chosen edge
        raise CapExceededError("exact search is deeper than the recursion limit") from None
    assert best_weight is not None and best_edges is not None
    values = {e: ZERO for e in g.edges}
    for e in best_edges:
        values[e] = ONE
    return CoverCertificate("integral", values, best_weight)


def _optimum(lp: LinearProgram) -> LpSolution:
    """The certified optimum of an LP that must have one: ``solve``, and a
    RuntimeError for any other status."""
    from .lp import solve

    solution = solve(lp)
    if solution.status != "optimal":
        kind = "covering" if lp.sense == "min" else "packing"
        raise RuntimeError(f"{kind} LP ended with status {solution.status}")
    return solution


def _optimal_packing(g: WeightedGraph) -> tuple[tuple[Fraction, ...], Fraction]:
    """An optimal packing vector y of the graph and its total, which equals
    the fractional covering optimum: ``solve`` certifies y by its dual, a
    fractional cover of equal weight. Entries equal to 0, 1/2 or 1 are the
    shared constants."""
    from .lp import dual_packing_lp

    packing = _optimum(dual_packing_lp(g))
    return tuple(map(_shared, packing.values)), packing.objective_value


def half_integral_cover(
    g: WeightedGraph, *, include_dual_witness: bool = True
) -> CoverCertificate:
    """Optimal fractional edge cover with values in {0, 1/2, 1}.

    One covering LP is solved on a bipartite graph: ``g`` itself when it
    is bipartite, else its bipartite double. Its incidence matrix is
    totally unimodular, so the basic optimum is 0/1, which is asserted
    rather than trusted. Each edge of ``g`` gets the mean of its copies:
    itself, or its two doubled copies. Bipartite graphs skip the doubling,
    which could mix two different minimum covers of the two copies and
    leave spurious 1/2 entries. Both branches check that the folded cover
    is feasible and that its weight equals the LP optimum (halved on the
    double); that weight is the fractional covering optimum, certified by
    an equal-total dual witness. Every value is one of the shared constants
    ``ZERO``, ``HALF`` and ``ONE``, and so is every value that
    ``canonicalize_to_odd_cycles`` rounds.
    """
    from .lp import fractional_cover_lp

    if _two_coloring(g)[1] is None:  # no conflict: bipartite
        solved, copies, scale = g, lambda e: (e,), 1
    else:
        doubled = double_graph(g)
        solved, copies, scale = doubled.graph, doubled.doubled_pair, 2
    primal = _optimum(fractional_cover_lp(solved))
    chosen: EdgeVector = {}
    for e, x in zip(solved.edges, primal.values):
        if x != 0 and x != 1:
            raise RuntimeError(f"basic optimum is not 0/1 on a bipartite graph (edge {e}: {x})")
        chosen[e] = ONE if x else ZERO
    values = {e: _shared(sum(chosen[c] for c in copies(e)) / scale) for e in g.edges}
    weight = cover_weight(g, values)
    if scale * weight != primal.objective_value:
        raise RuntimeError("folded cover weight disagrees with the covering LP optimum")
    if not is_feasible_cover(g, values):
        raise RuntimeError("folded cover is not feasible")
    witness = None
    if include_dual_witness:  # an optimal packing vector of equal total
        witness, total = _optimal_packing(g)
        if total != weight:
            raise RuntimeError("primal and dual optima disagree")
    return CoverCertificate("half-integral", values, weight, witness)


def _petals(adj: dict[int, list[int]], center: int) -> list[list[int]]:
    """Cycles through the center of a component whose other vertices all
    have degree two: each leaves the center toward its smallest unused
    neighbor and every other vertex by the edge it did not arrive on."""
    unused = set(adj[center])
    petals = []
    while unused:
        walk = [center, min(unused)]
        while walk[-1] != center:
            walk.append(next(u for u in adj[walk[-1]] if u != walk[-2]))
        unused -= {walk[1], walk[-2]}
        petals.append(walk)
    return petals


def _rounding_walk(
    g: WeightedGraph, values: EdgeVector, adj: dict[int, list[int]]
) -> list[int] | None:
    """A walk in a support component whose alternating update keeps the
    cover feasible, or None exactly when the component is a simple odd
    cycle.

    Open walks must start and end at "slack" vertices, those with total
    incident value >= 3/2, because the update may lower the first (and
    last) walk edge by 1/2; interior vertices are touched by two
    consecutive walk edges whose updates cancel. Degree-one support
    vertices are always slack (feasibility forces a full edge next to
    their lone half edge) and so are degree->=3 vertices (three halves).
    A simple cycle is a flower of one petal around its smallest vertex;
    any other component with fewer than two slack vertices is a flower
    around its one slack vertex. An even petal rounds alone, and two odd
    petals concatenate into an even closed walk whose four end-edges at
    the center cancel in pairs.
    """
    if all(len(nbrs) == 2 for nbrs in adj.values()):
        center = min(adj)
    else:
        slack = sorted(v for v in adj if _incident_total(g, values, v) >= Fraction(3, 2))
        if len(slack) >= 2:
            return _lex_shortest_path(adj.__getitem__, slack[0], slack[1])
        if not slack:
            raise RuntimeError("support component has no roundable structure")
        center = slack[0]
    petals = _petals(adj, center)
    even = [walk for walk in petals if len(walk) % 2]  # k edges, k + 1 vertices
    if even:
        return even[0]
    return petals[0] + petals[1][1:] if len(petals) > 1 else None


def _apply_alternating_round(
    g: WeightedGraph, values: EdgeVector, walk: list[int]
) -> EdgeVector:
    """Shift the walk edges by alternating -+1/2, lowering the walk's
    smallest edge, its first in ``g.edges`` order. The walk's edges are
    distinct, so of the two alternating shifts this is the
    lexicographically smaller in edge order. Both are feasible and their
    weights average to the input's optimal weight, so both are optimal."""
    edges = [edge_key(a, b) for a, b in zip(walk, walk[1:])]
    lowered = edges.index(min(edges)) % 2
    x = dict(values)
    for i, e in enumerate(edges):
        x[e] = _shared(x[e] - HALF if i % 2 == lowered else x[e] + HALF)
    if not is_feasible_cover(g, x):
        raise RuntimeError("alternating rounding broke cover feasibility")
    return x


def _support_pass(g: WeightedGraph, x: EdgeVector) -> tuple[list[int] | None, _Cycles]:
    """One pass over the connected components of the 1/2-valued support, by
    smallest vertex: the rounding walk of the first that is not a simple
    odd cycle, else None and the odd cycles as closed vertex walks."""
    adjacency: dict[int, list[int]] = {}
    for u, v in g.edges:  # in sorted order, so each list comes out sorted
        if x[(u, v)] == HALF:
            adjacency.setdefault(u, []).append(v)
            adjacency.setdefault(v, []).append(u)
    cycles = []
    seen: set[int] = set()
    for start in sorted(adjacency):
        if start not in seen:
            reached = _bfs_distances(adjacency.__getitem__, start)
            seen.update(reached)
            adj = {v: adjacency[v] for v in reached}
            walk = _rounding_walk(g, x, adj)
            if walk is not None:
                return walk, ()
            cycles.append(tuple(_petals(adj, start)[0]))
    return None, tuple(cycles)


def _canonical_form(
    g: WeightedGraph, values: EdgeVector, optimum: Fraction
) -> tuple[EdgeVector, _Cycles]:
    """``canonicalize_to_odd_cycles`` with the odd cycles of its last pass,
    given the fractional covering optimum of ``g``, which the caller has
    certified."""
    x = _validated_half_integral_cover(g, values)
    if cover_weight(g, x) != optimum:
        raise ValueError("vector is not an optimal fractional cover")

    for _ in range(g.edge_count + 1):
        walk, cycles = _support_pass(g, x)
        if walk is None:
            return x, cycles
        x = _apply_alternating_round(g, x, walk)
        if cover_weight(g, x) != optimum:
            raise RuntimeError("rounding changed the cover weight")
    raise RuntimeError("canonicalization failed to terminate")


def canonicalize_to_odd_cycles(g: WeightedGraph, values: EdgeVector) -> EdgeVector:
    """Round an optimal half-integral cover until its fractional support is
    a disjoint union of vertex-disjoint odd cycles.

    Each pass rounds the walk of the first support component, by smallest
    vertex, that is not a simple odd cycle, keeping the optimal weight.
    Every pass makes at least one more coordinate integral, which bounds
    the number of passes by the edge count.
    """
    return _canonical_form(g, values, _optimal_packing(g)[1])[0]


def fractional_support_cycles(g: WeightedGraph, values: EdgeVector) -> _Cycles:
    """The odd cycles carrying the 1/2 entries of a canonical vector, as
    closed vertex walks ordered by smallest vertex. Raises ValueError
    unless the vector is a half-integral cover and ``_rounding_walk`` finds
    each 1/2-valued support component to be a simple odd cycle.
    """
    walk, cycles = _support_pass(g, _validated_half_integral_cover(g, values))
    if walk is not None:
        raise ValueError("fractional support is not a disjoint union of odd cycles")
    return cycles

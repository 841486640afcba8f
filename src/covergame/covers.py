"""Minimum-weight edge covers, as plain values that only ``cli`` renders:
exact integral search by branch and bound over at most
``EXACT_CANDIDATE_CAP`` = 24 candidate edges (a fixed cap; ``cover`` and
``cost`` exit 2 past it), each node pruned by one test of a lower bound
carried down from its parent; half-integral covers folded from one
covering LP (of the graph when bipartite, else of its bipartite double);
the optimal packing LP behind every fractional optimum; and the rounding
that leaves only vertex-disjoint odd cycles fractional. Both LPs go
through one checked solve, ``_optimum``, which accepts only an optimum,
and the LP names are imported at the top, so this module loads ``lp``.

The rounding has one rule for choosing a walk in the 1/2-valued support,
in which a simple cycle is a flower of one petal, and each pass shifts
the walk the one way that lowers its smallest edge. It traverses the
support with the BFS and the lexicographic shortest path of ``graphs``.
The same rule says which support components are simple odd cycles: the
last pass finds no walk and gives ``frac-cover --canonical`` the cycles."""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple

from .graphs import CapExceededError, Edge, WeightedGraph, coalition
from .graphs import double_graph, edge_key, _doubled_pair
from .graphs import _bfs_distances, _conflict_vertex, _lex_shortest_path  # the shared traversal
from .lp import LinearProgram, LpSolution, dual_packing_lp, fractional_cover_lp, solve
from .rationals import HALF, ONE, ZERO, _fraction, _shared

# Most candidate edges the exact cover search takes: its run time grows
# exponentially in their number.
EXACT_CANDIDATE_CAP = 24

EdgeVector = dict[Edge, Fraction]
_Cycles = tuple[tuple[int, ...], ...]  # closed vertex walks
_Found = tuple[Fraction, tuple[Edge, ...]]  # a cover's weight and edges


class CoverCertificate(NamedTuple):
    """An edge cover with its exact weight and, when available, a dual
    allocation of equal total certifying optimality; ``cli`` renders it."""

    kind: str  # "integral" | "half-integral"
    values: EdgeVector
    weight: Fraction
    dual_witness: tuple[Fraction, ...] | None = None


def cover_weight(g: WeightedGraph, values: EdgeVector) -> Fraction:
    """The vector's total weight. Raises ValueError on a key that is not
    an edge of g."""
    total = ZERO
    for e, x in values.items():
        try:
            w = g.weight(*e)
        except KeyError:
            raise ValueError(f"cover key {e!r} is not an edge of the graph") from None
        if _fraction(x):
            total += w * x
    return total


def is_feasible_cover(g: WeightedGraph, values: EdgeVector) -> bool:
    """Every vertex carries total incident value at least one; an edge
    missing from the vector carries 0."""
    return all(_incident_total(g, values, v) >= 1 for v in g.vertices())


def _incident_total(g: WeightedGraph, values: EdgeVector, v: int) -> Fraction:
    return sum(_fraction(values.get(edge_key(v, u), ZERO)) for u in g.neighbors(v))


def is_half_integral(values: EdgeVector) -> bool:
    return all(_fraction(x) in (ZERO, HALF, ONE) for x in values.values())


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
    g: WeightedGraph, members: Iterable[int] | None = None
) -> CoverCertificate:
    """Exact minimum-weight cover of a coalition by branch and bound: the
    first optimum in search order, which covers the lowest uncovered vertex
    first, by its candidate edges cheapest first, ties by edge key.

    Candidates are the edges inside the coalition plus its boundary; any
    other edge only adds weight. Each node has one prune test: its bound,
    half the cheapest candidate weight of each uncovered vertex summed (an
    edge covers at most two), against its budget, the weight left under
    the best cover so far. The bound is carried down, less the halves of
    what each chosen edge covers, so a leaf's is 0. The first budget, the
    total candidate weight plus one, prunes nothing; it is a Fraction, as
    math.inf minus a weight goes through float and overflows past 1.8e308.
    More than ``EXACT_CANDIDATE_CAP`` candidates raise CapExceededError;
    the recursion is one level per chosen edge, so at most that cap deep.
    """
    s = coalition(g, g.vertices() if members is None else members)
    candidates = [(w, e) for e, w in zip(g.edges, g.weights) if e[0] in s or e[1] in s]
    if len(candidates) > EXACT_CANDIDATE_CAP:
        raise CapExceededError(
            f"{len(candidates)} candidate edges exceed the exact-solver cap of {EXACT_CANDIDATE_CAP}"
        )

    options = {v: sorted(c for c in candidates if v in c[1]) for v in s}
    half = {v: pairs[0][0] / 2 for v, pairs in options.items()}

    def search(uncovered: frozenset[int], budget: Fraction, bound: Fraction) -> _Found | None:
        # The first cover of ``uncovered`` in search order that weighs less
        # than ``budget``, as (weight, edges); ``bound`` sums ``half`` on it.
        if bound >= budget:
            return None
        if not uncovered:
            return ZERO, ()
        best = None
        for w, e in options[min(uncovered)]:
            covered = uncovered.intersection(e)
            found = search(uncovered - covered, budget - w, bound - sum(half[v] for v in covered))
            if found is not None:
                budget = w + found[0]
                best = budget, (e, *found[1])
        return best

    weight, edges = search(s, sum(w for w, _ in candidates) + 1, sum(half.values()))
    values = dict.fromkeys(g.edges, ZERO) | dict.fromkeys(edges, ONE)
    return CoverCertificate("integral", values, weight)


def _optimum(lp: LinearProgram) -> LpSolution:
    """The certified optimum of an LP that must have one: ``solve``, and a
    RuntimeError for any other status."""
    solution = solve(lp)
    if solution.status != "optimal":
        kind = "covering" if lp.sense == "min" else "packing"
        raise RuntimeError(f"{kind} LP ended with status {solution.status}")
    return solution


def _optimal_packing(g: WeightedGraph) -> tuple[tuple[Fraction, ...], Fraction]:
    """An optimal packing vector y of the graph and its total, which equals
    the fractional covering optimum: ``solve`` certifies y by its dual, a
    fractional cover of equal weight. Entries equal to 1/2 or to an integer
    from 0 to 256 are the objects of the shared table of ``rationals``."""
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
    if _conflict_vertex(g) is None:  # bipartite
        solved, copies, scale = g, lambda e: (e,), 1
    else:
        solved, copies, scale = double_graph(g), lambda e: _doubled_pair(e, g.vertex_count), 2
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

"""Minimum-weight edge covers: exact integral search, half-integral covers
from the covering LP (through the doubling construction on non-bipartite
graphs), the optimal packing LP behind every fractional optimum, and the
rounding that leaves only vertex-disjoint odd cycles fractional.

The rounding traverses the 1/2-valued support with the BFS and the
lexicographic shortest path of ``graphs``."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import CapExceededError
from .graphs import Edge, WeightedGraph, coalition, double_graph, edge_key, is_bipartite
from .graphs import _bfs_distances, _lex_shortest_path  # the shared traversal
from .rationals import format_rational

# Every half-integral entry this module builds is one of these three
# objects, so a vector holds no Fraction of its own per edge.
ZERO = Fraction(0)
HALF = Fraction(1, 2)
ONE = Fraction(1)
_SHARED = {x: x for x in (ZERO, HALF, ONE)}

EdgeVector = dict[Edge, Fraction]


def __getattr__(name: str):
    # The LP module loads only when a cover is solved: the two helpers that
    # solve import it. Its names stay readable as attributes of this module.
    if name in ("dual_packing_lp", "fractional_cover_lp", "solve"):
        from . import lp

        return getattr(lp, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class CoverCertificate:
    """An edge cover with its exact weight and, when available, a dual
    allocation of equal total certifying optimality."""

    kind: str  # "integral" | "half-integral" | "fractional"
    values: EdgeVector
    weight: Fraction
    dual_witness: tuple[Fraction, ...] | None = None

    def nonzero_entries(self) -> list[tuple[Edge, Fraction]]:
        return [(e, x) for e, x in sorted(self.values.items()) if x]

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "weight": format_rational(self.weight),
            "entries": [
                {"edge": [u, v], "value": format_rational(x)}
                for (u, v), x in self.nonzero_entries()
            ],
            "dual_witness": None
            if self.dual_witness is None
            else [format_rational(y) for y in self.dual_witness],
        }


def cover_weight(g: WeightedGraph, values: EdgeVector) -> Fraction:
    return Fraction(sum(g.weight(*e) * x for e, x in values.items() if x))


def is_feasible_cover(g: WeightedGraph, values: EdgeVector) -> bool:
    """Every vertex carries total incident value at least one."""
    return all(_incident_total(g, values, v) >= 1 for v in g.vertices())


def _incident_total(g: WeightedGraph, values: EdgeVector, v: int) -> Fraction:
    return sum(values[edge_key(v, u)] for u in g.neighbors(v))


def is_half_integral(values: EdgeVector) -> bool:
    return all(x in (ZERO, HALF, ONE) for x in values.values())


def _shared(x: Fraction) -> Fraction:
    """The module constant equal to x when there is one, else x itself."""
    return _SHARED.get(x, x)


def _validated_half_integral_cover(g: WeightedGraph, values: EdgeVector) -> EdgeVector:
    """The vector in Fractions, keeping the caller's Fraction objects.
    Raises ValueError unless it gives every edge a value in {0, 1/2, 1}
    and covers every vertex."""
    x: EdgeVector = {e: v if type(v) is Fraction else Fraction(v) for e, v in values.items()}
    if set(x) != set(g.edges):
        raise ValueError("vector must assign a value to every edge of the graph")
    if not is_half_integral(x):
        raise ValueError("vector is not half-integral")
    if not is_feasible_cover(g, x):
        raise ValueError("vector is not a feasible cover")
    return x


# Default candidate-edge cap of the exact solver, shared by every caller.
EXACT_CANDIDATE_CAP = 24


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


def _integral_lp_cover(g: WeightedGraph) -> tuple[EdgeVector, Fraction]:
    """Basic optimum of the covering LP of a graph known to be bipartite.

    The incidence matrix of a bipartite graph is totally unimodular, so the
    basic optimal solution is a 0/1 vector; that is asserted rather than
    trusted.
    """
    from .lp import fractional_cover_lp, solve

    primal = solve(fractional_cover_lp(g))
    if primal.status != "optimal":
        raise RuntimeError(f"covering LP ended with status {primal.status}")
    values: EdgeVector = {}
    for j, e in enumerate(g.edges):
        x = primal.values[j]
        if x != 0 and x != 1:
            raise RuntimeError(f"basic optimum is not 0/1 on a bipartite graph (edge {e}: {x})")
        values[e] = ONE if x else ZERO
    return values, primal.objective_value


def _optimal_packing(g: WeightedGraph) -> tuple[tuple[Fraction, ...], Fraction]:
    """An optimal packing vector y of the graph and its total, which equals
    the fractional covering optimum: ``solve`` certifies y by its dual, a
    fractional cover of equal weight."""
    from .lp import dual_packing_lp, solve

    packing = solve(dual_packing_lp(g))
    if packing.status != "optimal":
        raise RuntimeError(f"dual packing LP ended with status {packing.status}")
    return packing.values, packing.objective_value


def half_integral_cover(
    g: WeightedGraph, *, include_dual_witness: bool = True
) -> CoverCertificate:
    """Optimal fractional edge cover with values in {0, 1/2, 1}.

    Non-bipartite graphs go through the doubling construction: solve the
    integral cover problem on the bipartite double and average the two
    copies of each edge. Bipartite graphs short-circuit to the direct LP
    cover, which is already integral and optimal; running the doubling
    there could mix two different minimum covers of the two copies and
    leave spurious 1/2 entries. The weight always equals the optimum of
    the fractional covering LP, certified by an equal-total dual witness.
    Every value is one of the shared constants ``ZERO``, ``HALF`` and
    ``ONE``, and so is every value that ``canonicalize_to_odd_cycles``
    rounds.
    """
    if is_bipartite(g).bipartite:
        values, weight = _integral_lp_cover(g)
    else:
        doubled = double_graph(g)
        doubled_values, doubled_weight = _integral_lp_cover(doubled.graph)
        values = {}
        for e in g.edges:
            e1, e2 = doubled.doubled_pair(e)
            values[e] = _shared((doubled_values[e1] + doubled_values[e2]) / 2)
        weight = cover_weight(g, values)
        if 2 * weight != doubled_weight:
            raise RuntimeError("averaged cover weight disagrees with the doubled cover")
        if not is_feasible_cover(g, values):
            raise RuntimeError("averaged cover is not feasible")
    witness = None
    if include_dual_witness:  # an optimal packing vector of equal total
        witness, total = _optimal_packing(g)
        if total != weight:
            raise RuntimeError("primal and dual optima disagree")
    return CoverCertificate("half-integral", values, weight, witness)


def _half_support_components(g: WeightedGraph, values: EdgeVector) -> list[dict[int, list[int]]]:
    """Connected components of the 1/2-valued support, as adjacency maps,
    ordered by smallest vertex."""
    adjacency: dict[int, list[int]] = {}
    for u, v in g.edges:
        if values[(u, v)] == HALF:
            adjacency.setdefault(u, []).append(v)
            adjacency.setdefault(v, []).append(u)
    for v in adjacency:
        adjacency[v].sort()
    components = []
    seen: set[int] = set()
    for start in sorted(adjacency):
        if start not in seen:
            reached = _bfs_distances(adjacency.__getitem__, start)
            seen.update(reached)
            components.append({v: adjacency[v] for v in reached})
    return components


def _closed_walk(adj: dict[int, list[int]], start: int, first: int) -> list[int]:
    """Walk from start through first back to start, leaving every other
    vertex (all of degree two) by the edge it did not arrive on."""
    walk = [start, first]
    while walk[-1] != start:
        prev, cur = walk[-2], walk[-1]
        walk.append(next(u for u in adj[cur] if u != prev))
    return walk


def _cycle_walk(adj: dict[int, list[int]]) -> list[int]:
    """Closed walk of a component that is a simple cycle, starting at its
    smallest vertex toward its smallest neighbor."""
    start = min(adj)
    return _closed_walk(adj, start, adj[start][0])


def _petals(adj: dict[int, list[int]], center: int) -> list[list[int]]:
    """Cycles through the center of a component whose other vertices all
    have degree two."""
    unused = set(adj[center])
    petals = []
    while unused:
        first = min(unused)
        walk = _closed_walk(adj, center, first)
        unused.discard(first)
        unused.discard(walk[-2])
        petals.append(walk)
    return petals


def _rounding_walk(g: WeightedGraph, values: EdgeVector, adj: dict[int, list[int]]) -> list[int]:
    """Pick a walk in a non-odd-cycle support component whose alternating
    update keeps both rounded vectors feasible.

    Open walks must start and end at "slack" vertices, those with total
    incident value >= 3/2, because one of the two updates lowers the first
    (and possibly last) walk edge by 1/2; interior vertices are touched by
    two consecutive walk edges whose updates cancel. Degree-one support
    vertices are always slack (feasibility forces a full edge next to
    their lone half edge) and so are degree->=3 vertices (three halves).
    With fewer than two slack vertices the component is a flower of cycles
    through its single slack vertex: an even petal rounds like an even
    cycle, and two odd petals concatenate into an even closed walk whose
    four end-edges at the center cancel in pairs.
    """
    slack = sorted(v for v in adj if _incident_total(g, values, v) >= Fraction(3, 2))
    if len(slack) >= 2:
        return _lex_shortest_path(adj.__getitem__, slack[0], slack[1])
    if not slack:
        raise RuntimeError("support component has no roundable structure")
    petals = _petals(adj, slack[0])
    for walk in petals:
        if (len(walk) - 1) % 2 == 0:
            return walk
    return petals[0] + petals[1][1:]


def _apply_alternating_round(
    g: WeightedGraph, values: EdgeVector, walk: list[int]
) -> EdgeVector:
    """Shift the walk edges by alternating +-1/2 both ways and keep the
    lexicographically smaller result: both are feasible and their weights
    average to the input's optimal weight, so both are optimal."""
    edges = [edge_key(a, b) for a, b in zip(walk, walk[1:])]
    first_down: EdgeVector = dict(values)
    first_up: EdgeVector = dict(values)
    for i, e in enumerate(edges):
        delta = HALF if i % 2 else -HALF
        first_down[e] = _shared(first_down[e] + delta)
        first_up[e] = _shared(first_up[e] - delta)
    if not (is_feasible_cover(g, first_down) and is_feasible_cover(g, first_up)):
        raise RuntimeError("alternating rounding broke cover feasibility")
    return min(first_down, first_up, key=lambda x: [x[e] for e in g.edges])


def canonicalize_to_odd_cycles(g: WeightedGraph, values: EdgeVector) -> EdgeVector:
    """Round an optimal half-integral cover until its fractional support is
    a disjoint union of vertex-disjoint odd cycles.

    Each pass finds a support component that is not a simple odd cycle,
    rounds an even cycle or a slack-to-slack walk in it, and keeps the
    lexicographically smaller of the two alternating shifts (both are
    feasible and their weights average to the current one, so both stay
    optimal). Every pass makes at least one more coordinate integral,
    which bounds the number of passes by the edge count.
    """
    x = _validated_half_integral_cover(g, values)
    optimum = _optimal_packing(g)[1]
    if cover_weight(g, x) != optimum:
        raise ValueError("vector is not an optimal fractional cover")

    for _ in range(g.edge_count + 1):
        walk = None
        for adj in _half_support_components(g, x):
            if all(len(nbrs) == 2 for nbrs in adj.values()):
                if len(adj) % 2 == 1:
                    continue  # already a simple odd cycle
                walk = _cycle_walk(adj)
                break
            walk = _rounding_walk(g, x, adj)
            break
        if walk is None:
            return x
        x = _apply_alternating_round(g, x, walk)
        if cover_weight(g, x) != optimum:
            raise RuntimeError("rounding changed the cover weight")
    raise RuntimeError("canonicalization failed to terminate")


def fractional_support_cycles(
    g: WeightedGraph, values: EdgeVector
) -> tuple[tuple[int, ...], ...]:
    """The odd cycles carrying the 1/2 entries of a canonical vector, as
    closed vertex walks ordered by smallest vertex.

    Raises ValueError when the support is not a disjoint union of simple
    odd cycles.
    """
    cycles = []
    for adj in _half_support_components(g, values):
        if not all(len(nbrs) == 2 for nbrs in adj.values()) or len(adj) % 2 == 0:
            raise ValueError("fractional support is not a disjoint union of odd cycles")
        cycles.append(tuple(_cycle_walk(adj)))
    return tuple(cycles)

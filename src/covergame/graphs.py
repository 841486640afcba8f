"""Weighted-graph arena: parsing of graph text, coalition validation, the
bipartiteness test, shortest odd cycles, and the bipartite doubling
construction. A parsed graph holds one weight object per distinct weight
token of its file, and the tokens "0", "1" and "1/2" give the shared
constants of ``rationals``.

``_bfs_distances`` and ``_lex_shortest_path`` are the package's one BFS
and one tie-broken path: the bipartiteness test, the odd-walk witness, the
truncated odd-cycle search and the canonical rounding in ``covers`` all use
them. The BFS is a plain function that returns the distance map, with an
optional distance limit. The bipartiteness test looks for the first vertex
with a neighbor on its own BFS level. Both input-error types live here:
``GraphFormatError`` for graph text and ``CapExceededError`` for instances
beyond a search budget.

Every operation is a pure function, and a graph's vertices, edges and
weights never change after construction. Its adjacency tuples are built
later, once, on the first ``neighbors`` call, from the edge list alone, so
a graph that is never traversed holds none: the graphs of the coalition
cost, ``cover``, the LP builders and the double inside the half-integral
cover. That build is idempotent: two threads that race build equal tuples
and either may be kept, so sharing a graph across threads stays safe.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction
from operator import index
from pathlib import Path
from typing import Callable, Iterable, NamedTuple

from .rationals import HALF, ONE, ZERO, _echo, _fraction, _parse_integer, _significant_lines
from .rationals import parse_rational

Edge = tuple[int, int]


class GraphFormatError(ValueError):
    """Invalid graph input; ``kind`` names the violation class.

    Kinds: bad-header, malformed, loop, duplicate-edge, negative-weight,
    vertex-range, isolated-vertex.
    """

    def __init__(self, kind: str, message: str, line_no: int | None = None):
        self.kind = kind
        self.message = message
        self.line_no = line_no
        where = f" (line {line_no})" if line_no is not None else ""
        super().__init__(f"{kind}: {message}{where}")


class CapExceededError(ValueError):
    """An instance is too large for an exact-search cap or an oracle budget."""


def edge_key(u: int, v: int) -> Edge:
    """Normalized undirected edge key (min endpoint first)."""
    return (u, v) if u < v else (v, u)


class WeightedGraph:
    """Simple undirected graph on vertices 0..n-1 with rational edge weights.

    Enforced invariants: no loops, no parallel edges, every weight >= 0, and
    minimum degree >= 1 (so an edge cover exists for every coalition). This
    constructor checks all of them. ``parse_graph`` feeds it and adds line
    numbers; it rejects n <= 0 itself only so that a bad header is reported
    before the count of edge lines is checked. ``edges`` holds the sorted
    edge keys, and ``neighbors(v)`` the sorted neighbors of v, so its length
    is v's degree. The neighbor tuples are built on the first ``neighbors``
    call, so a graph that is never traversed, or a copy or pickle of one,
    holds none.
    """

    __slots__ = ("vertex_count", "edges", "_weight", "_neighbors")

    def __init__(self, vertex_count: int, weighted_edges: Iterable[tuple[int, int, Fraction]]):
        vertex_count = index(vertex_count)  # like the vertex ids below
        if vertex_count <= 0:
            raise GraphFormatError("bad-header", "vertex count must be positive")
        weight: dict[Edge, Fraction] = {}
        ends: set[int] = set()
        for u, v, w in weighted_edges:
            u, v = index(u), index(v)  # a float, a Fraction or a str raises TypeError
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                message = f"edge ({_echo(u)}, {_echo(v)}) is out of range"
                raise GraphFormatError("vertex-range", message)
            if u == v:
                raise GraphFormatError("loop", f"loop at vertex {_echo(u)}")
            e = edge_key(u, v)
            if e in weight:
                message = f"edge {_echo(e[0])}-{_echo(e[1])} appears twice"
                raise GraphFormatError("duplicate-edge", message)
            w = _fraction(w)
            if w.numerator < 0:
                message = f"edge {_echo(e[0])}-{_echo(e[1])} has weight {_echo(w)}"
                raise GraphFormatError("negative-weight", message)
            weight[e] = w
            ends.update(e)
        # Checked on the O(m) endpoint set before anything of size n exists:
        # a header with n > 2m is rejected without allocating n slots.
        if len(ends) < vertex_count:
            v = next(v for v in range(vertex_count) if v not in ends)
            raise GraphFormatError("isolated-vertex", f"vertex {v} has no incident edge")
        self.vertex_count = vertex_count
        self.edges: tuple[Edge, ...] = tuple(sorted(weight))
        self._weight = weight

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def vertices(self) -> range:
        return range(self.vertex_count)

    def weight(self, u: int, v: int) -> Fraction:
        return self._weight[edge_key(u, v)]

    def neighbors(self, v: int) -> tuple[int, ...]:
        # The unset slot, not a __getattr__ hook, marks the first call: a
        # class with such a hook gets none of CPython 3.11's specialized
        # attribute loads.
        try:
            return self._neighbors[v]
        except AttributeError:
            pass
        # The edges are sorted, so v's lower neighbors arrive in order
        # before its higher ones and each tuple comes out sorted.
        adjacency: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for a, b in self.edges:
            adjacency[a].append(b)
            adjacency[b].append(a)
        self._neighbors = tuple(tuple(a) for a in adjacency)
        return self._neighbors[v]

    def __repr__(self) -> str:
        return f"WeightedGraph(n={self.vertex_count}, m={self.edge_count})"


def parse_graph(source: str) -> WeightedGraph:
    """Parse the text graph format.

    Line 1 holds ``n m``; the next ``m`` lines hold ``u v w`` with
    0 <= u < v < n and w a nonnegative integer or "p/q" fraction. Lines
    starting with ``#``, blank lines and a leading byte-order mark are
    ignored. Violations raise GraphFormatError with a line number and a
    distinct error kind. Edges with equal weight tokens share one Fraction,
    and the tokens "0", "1" and "1/2" give ``ZERO``, ``ONE`` and ``HALF``.
    """
    significant = _significant_lines(source)
    if not significant:
        raise GraphFormatError("bad-header", "empty input")

    header_no, header = significant[0]
    parts = header.split()
    if len(parts) != 2:
        raise GraphFormatError("bad-header", "expected 'n m'", header_no)
    try:
        n, m = _parse_integer(parts[0]), _parse_integer(parts[1])
    except ValueError:
        raise GraphFormatError("bad-header", "expected integers 'n m'", header_no) from None
    if n <= 0 or m < 0:
        raise GraphFormatError("bad-header", f"invalid sizes n={_echo(n)}, m={_echo(m)}", header_no)

    body = significant[1:]
    if len(body) != m:
        raise GraphFormatError(
            "malformed", f"expected {_echo(m)} edge lines, found {len(body)}", header_no
        )

    # Only the text format is checked here. The constructor checks the graph
    # and its errors get the number of the line being read.
    line_no = header_no
    # One Fraction per distinct weight token in this text, keyed by the
    # token: hashing a str is cheaper than hashing a Fraction.
    weights = {"0": ZERO, "1": ONE, "1/2": HALF}

    def weighted_edges() -> Iterable[tuple[int, int, Fraction]]:
        nonlocal line_no
        for line_no, line in body:
            parts = line.split()
            if len(parts) != 3:
                raise GraphFormatError("malformed", "expected 'u v w'", line_no)
            try:
                u, v = _parse_integer(parts[0]), _parse_integer(parts[1])
            except ValueError:
                raise GraphFormatError("malformed", "vertex ids must be integers", line_no) from None
            if u > v:
                raise GraphFormatError("malformed", "edges must be written with u < v", line_no)
            w = weights.get(parts[2])
            if w is None:
                try:
                    w = weights[parts[2]] = parse_rational(parts[2])
                except ValueError:
                    raise GraphFormatError("malformed", f"bad weight {_echo(parts[2])}", line_no) from None
            yield u, v, w
        line_no = header_no  # the checks after the last edge are about the header

    try:
        return WeightedGraph(n, weighted_edges())
    except GraphFormatError as exc:
        if exc.line_no is not None:
            raise
        raise GraphFormatError(exc.kind, exc.message, line_no) from None


def load_graph(path: str | Path) -> WeightedGraph:
    """Read and parse a graph file."""
    return parse_graph(Path(path).read_text(encoding="utf-8"))


def coalition(g: WeightedGraph, members: Iterable[int]) -> frozenset[int]:
    """Validate a coalition: a nonempty subset of the vertex set (ints only)."""
    s = frozenset(map(index, members))
    if not s:
        raise ValueError("coalition must be nonempty")
    for v in s:
        if not (0 <= v < g.vertex_count):
            raise ValueError(f"coalition member {_echo(v)} is not a vertex")
    return s


def _bfs_distances(
    neighbors: Callable[[int], Iterable[int]], source: int, limit: float = math.inf
) -> dict[int, int]:
    """Breadth-first distances from source that are below limit; the keys,
    in visiting order, are the vertices within that distance. Only vertices
    whose neighbors lie below the limit are expanded."""
    dist = {source: 0} if limit > 0 else {}
    queue = deque(dist)
    while queue:
        v = queue.popleft()
        d = dist[v] + 1
        if d < limit:
            for u in neighbors(v):
                if u not in dist:
                    dist[u] = d
                    queue.append(u)
    return dist


def _lex_shortest_path(neighbors: Callable[[int], Iterable[int]], a: int, b: int) -> list[int]:
    """The lexicographically smallest shortest path from a to b over a
    symmetric neighbor function: each step takes the smallest neighbor one
    step closer to b. Such a neighbor is also one step farther from a, so
    it lies on a shortest path."""
    to_b = _bfs_distances(neighbors, b)
    path = [a]
    for remaining in range(to_b[a] - 1, -1, -1):
        path.append(min(u for u in neighbors(path[-1]) if to_b.get(u) == remaining))
    return path


def _odd_walk_through(g: WeightedGraph, s: int) -> tuple[int, ...]:
    """The lexicographically smallest shortest odd closed walk through s, a
    vertex of a non-bipartite component: the path from s to s + n in the
    bipartite double of ``double_graph``, walked without building it and
    read modulo n. The neighbors of one vertex all lie in one copy, so the
    smallest of them is also the smallest source vertex."""
    n = g.vertex_count

    def doubled_neighbors(v: int) -> Iterable[int]:
        return [u + n for u in g.neighbors(v)] if v < n else g.neighbors(v - n)

    return tuple(v % n for v in _lex_shortest_path(doubled_neighbors, s, s + n))


def _level_conflict(g: WeightedGraph, dist: dict[int, int]) -> int | None:
    """The first vertex of a BFS ball, in visiting order, with a neighbor on
    its own level."""
    for v, k in dist.items():
        if k in map(dist.get, g.neighbors(v)):
            return v
    return None


def _conflict_vertex(g: WeightedGraph) -> int | None:
    """The first vertex, in BFS order from the lowest vertex of each
    component, with a neighbor on its own BFS level; None exactly when g is
    bipartite, since every edge joins equal or adjacent levels and the
    levels' parities two-color g when no edge lies inside a level."""
    seen: set[int] = set()
    for root in g.vertices():
        if root not in seen:
            dist = _bfs_distances(g.neighbors, root)
            conflict = _level_conflict(g, dist)
            if conflict is not None:
                return conflict
            seen.update(dist)
    return None


class OddCycleReport(NamedTuple):
    """Shortest odd cycle length and one witness cycle.

    ``length`` is None on bipartite graphs. The witness is a closed vertex
    sequence (first = last) of odd length >= 3.
    """

    length: int | None
    witness: tuple[int, ...] | None


def _odd_closed_walk_through(g: WeightedGraph, s: int, bound: float) -> int | None:
    """Length of the shortest odd closed walk through s, if it is below bound.

    Every edge joins equal or adjacent BFS levels, so an odd closed walk
    through s uses an edge inside some level j and is at least 2j + 1 long;
    s -> x, x-y, y -> s gives 2k + 1 for the first level k that holds an
    edge. The ball of levels k with 2k + 1 < bound is built, then scanned in
    visiting order for the first vertex with a neighbor on its own level.
    With no bound, the ball is s's whole component.
    """
    dist = _bfs_distances(g.neighbors, s, (bound - 1) / 2)
    v = _level_conflict(g, dist)
    return None if v is None else 2 * dist[v] + 1


def shortest_odd_cycle(g: WeightedGraph) -> OddCycleReport:
    """Length of the shortest odd cycle with a deterministic witness.

    One O(|V| + |E|) ``_conflict_vertex`` scan settles bipartite graphs;
    otherwise the shortest odd closed walk through the conflict vertex, of
    length L, bounds the answer. Then one truncated BFS per start vertex (Itai and
    Rodeh 1978) finds the shortest odd closed walk through it, searching
    only the ball of radius about (best - 1) / 2 where best is the shortest
    length found so far (L at first). The witness is
    ``_odd_walk_through(g, s)`` for the chosen start s. A shortest odd
    closed walk is always a simple cycle: any repeated vertex would split it
    into two closed walks, one of them odd and strictly shorter. Ties are
    broken toward the lowest start vertex and then the lexicographically
    smallest vertex sequence.
    """
    conflict = _conflict_vertex(g)
    if conflict is None:
        return OddCycleReport(None, None)
    # L bounds ell, so only walks shorter than L + 1 count.
    best_len = _odd_closed_walk_through(g, conflict, math.inf) + 1
    best_start = -1
    for s in g.vertices():
        length = _odd_closed_walk_through(g, s, best_len)
        if length is not None:
            best_len, best_start = length, s
    return OddCycleReport(best_len, _odd_walk_through(g, best_start))


def _doubled_pair(e: Edge, n: int) -> tuple[Edge, Edge]:
    """The two copies of source edge uv in the bipartite double on 2n
    vertices: u-(v+n) and v-(u+n)."""
    u, v = e
    return edge_key(u, v + n), edge_key(v, u + n)


def double_graph(g: WeightedGraph) -> WeightedGraph:
    """The bipartite double: vertex v appears as v and v + n, and each edge
    uv as both copies of ``_doubled_pair``, carrying its weight."""
    n = g.vertex_count
    weighted_edges: list[tuple[int, int, Fraction]] = []
    for e in g.edges:
        w = g.weight(*e)
        weighted_edges += [(a, b, w) for a, b in _doubled_pair(e, n)]
    return WeightedGraph(2 * n, weighted_edges)

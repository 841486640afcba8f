"""Shared builders for fixture and random test graphs."""

from __future__ import annotations

import itertools
import random
import re
from collections import deque
from fractions import Fraction

from covergame import LinearProgram, LpSolution, OddCycleReport, WeightedGraph
from covergame.graphs import _conflict_vertex
from covergame.rationals import _echo

# The token rules as regexes: the reference the readers of ``rationals``
# are checked against.
INTEGER_RE = re.compile(r"-?[0-9]+")
RATIONAL_RE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def reference_parse_integer(token: str) -> int:
    """An integer token read through INTEGER_RE; ValueError otherwise."""
    if INTEGER_RE.fullmatch(token) is None:
        raise ValueError(f"not an integer literal: {_echo(token)}")
    return int(token)


def reference_parse_rational(token: str) -> Fraction:
    """A "p" or "p/q" token read through RATIONAL_RE; ValueError otherwise."""
    match = RATIONAL_RE.fullmatch(token)
    if match is None:
        raise ValueError(f"not a rational literal: {_echo(token)}")
    numerator = int(match.group(1))
    denominator = int(match.group(2)) if match.group(2) else 1
    if denominator == 0:
        raise ValueError(f"zero denominator: {_echo(token)}")
    return Fraction(numerator, denominator)


# The breaks of str.splitlines that are not universal newlines, by their
# names. The text readers end lines at LF, CRLF and CR only, so these stay
# inside a line, where they are whitespace.
LINE_SEPARATORS = {
    "VT": "\v", "FF": "\f", "FS": "\x1c", "GS": "\x1d", "RS": "\x1e",
    "NEL": "\x85", "LS": "\u2028", "PS": "\u2029",
}
NEWLINES = ("\n", "\r\n", "\r")


def cycle_graph(k: int, weight=Fraction(1)) -> WeightedGraph:
    return WeightedGraph(k, [(i, (i + 1) % k, Fraction(weight)) for i in range(k)])


def grid_edges(rows: int, cols: int) -> list[tuple[int, int, Fraction]]:
    """Edges of a rows x cols grid on ids 0..rows*cols-1 (row-major), weight one."""
    def vid(r, c):
        return r * cols + c
    edges = [(vid(r, c), vid(r, c + 1), Fraction(1)) for r in range(rows) for c in range(cols - 1)]
    edges += [(vid(r, c), vid(r + 1, c), Fraction(1)) for r in range(rows - 1) for c in range(cols)]
    return edges


def cycle_edges(k: int, first: int = 0) -> list[tuple[int, int, Fraction]]:
    """Edges of a k-cycle on ids first..first+k-1, weight one."""
    return [(first + i, first + (i + 1) % k, Fraction(1)) for i in range(k)]


def disjoint_union(*graphs: WeightedGraph) -> WeightedGraph:
    """The graphs side by side, each one's ids shifted past those before it."""
    edges, offset = [], 0
    for g in graphs:
        edges += [(u + offset, v + offset, g.weight(u, v)) for u, v in g.edges]
        offset += g.vertex_count
    return WeightedGraph(offset, edges)


def path_graph(weights) -> WeightedGraph:
    ws = [Fraction(w) for w in weights]
    return WeightedGraph(len(ws) + 1, [(i, i + 1, w) for i, w in enumerate(ws)])


def star_graph(leaves: int, weight=Fraction(1)) -> WeightedGraph:
    return WeightedGraph(leaves + 1, [(0, i, Fraction(weight)) for i in range(1, leaves + 1)])


def complete_graph(n: int, weight=Fraction(1)) -> WeightedGraph:
    pairs = itertools.combinations(range(n), 2)
    return WeightedGraph(n, [(u, v, Fraction(weight)) for u, v in pairs])


def triangle(weight=Fraction(1)) -> WeightedGraph:
    return cycle_graph(3, weight)


def random_weight(rng: random.Random, max_numerator=20, max_denominator=5, min_numerator=1) -> Fraction:
    return Fraction(rng.randint(min_numerator, max_numerator), rng.randint(1, max_denominator))


def random_graph(
    rng: random.Random,
    max_vertices=8,
    max_extra_edges=3,
    min_vertices=2,
    **weight_kwargs,
) -> WeightedGraph:
    """Random graph with minimum degree one: a random spanning tree plus a
    few extra edges, rational weights."""
    n = rng.randint(min_vertices, max_vertices)
    edges: dict[tuple[int, int], Fraction] = {}
    for v in range(1, n):
        u = rng.randrange(v)
        edges[(u, v)] = random_weight(rng, **weight_kwargs)
    pool = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
    rng.shuffle(pool)
    extra = rng.randint(0, min(max_extra_edges, len(pool)))
    for e in pool[:extra]:
        edges[e] = random_weight(rng, **weight_kwargs)
    return WeightedGraph(n, [(u, v, w) for (u, v), w in sorted(edges.items())])


def random_bipartite_graph(
    rng: random.Random, max_vertices=10, max_extra_edges=4, **weight_kwargs
) -> WeightedGraph:
    """Random bipartite graph on parts {0..a-1} and {a..n-1}, min degree one."""
    n = rng.randint(2, max_vertices)
    a = rng.randint(1, n - 1)
    left = list(range(a))
    right = list(range(a, n))
    edges: dict[tuple[int, int], Fraction] = {}
    for u in left:
        edges[(u, rng.choice(right))] = random_weight(rng, **weight_kwargs)
    for v in right:
        if not any(v in e for e in edges):
            edges[(rng.choice(left), v)] = random_weight(rng, **weight_kwargs)
    pool = [(u, v) for u in left for v in right if (u, v) not in edges]
    rng.shuffle(pool)
    extra = rng.randint(0, min(max_extra_edges, len(pool)))
    for e in pool[:extra]:
        edges[e] = random_weight(rng, **weight_kwargs)
    return WeightedGraph(n, [(u, v, w) for (u, v), w in sorted(edges.items())])


def random_nonbipartite_graph(
    rng: random.Random, max_vertices=8, max_extra_edges=3, **weight_kwargs
) -> WeightedGraph:
    for _ in range(200):
        g = random_graph(
            rng, max_vertices=max_vertices, min_vertices=3,
            max_extra_edges=max(2, max_extra_edges), **weight_kwargs,
        )
        if _conflict_vertex(g) is not None:
            return g
    raise AssertionError("failed to sample a non-bipartite graph")


def random_allocation(rng: random.Random, g: WeightedGraph, dual=None) -> tuple[Fraction, ...]:
    """Mixed allocation sampler: zeros, raw random values, scaled-down dual
    solutions, and duals perturbed upward at one vertex."""
    n = g.vertex_count
    kind = rng.randrange(4)
    if kind == 0:
        return tuple(Fraction(0) for _ in range(n))
    if kind == 1 or dual is None:
        return tuple(Fraction(rng.randint(0, 6), rng.randint(1, 3)) for _ in range(n))
    if kind == 2:
        factor = Fraction(rng.randint(0, 4), 4)
        return tuple(factor * y for y in dual)
    bumped = list(dual)
    bumped[rng.randrange(n)] += Fraction(rng.randint(1, 3), 2)
    return tuple(bumped)


def fraction_check_core_dual(g: WeightedGraph, allocation) -> tuple:
    """Reference dual checker in Fractions: the first edge, in edge order,
    with a_u + a_v > w_uv."""
    a = [Fraction(x) for x in allocation]
    for u, v in g.edges:
        if a[u] + a[v] > g.weight(u, v):
            return False, (u, v)
    return True, None


def fraction_check_core_stars(g: WeightedGraph, allocation) -> tuple:
    """Reference star checker in Fractions: per center, the neighbors of
    positive margin a_u - w_uv, or else the best neighbor (ties to the
    lowest id), summed and compared in full."""
    a = [Fraction(x) for x in allocation]
    for v in range(g.vertex_count):
        margins = [(a[u] - g.weight(u, v), u) for u in g.neighbors(v)]
        members = [u for margin, u in margins if margin > 0]
        if not members:
            members = [max(margins, key=lambda t: (t[0], -t[1]))[1]]
        total = a[v] + sum(a[u] for u in members)
        capacity = sum(g.weight(u, v) for u in members)
        if total > capacity:
            return False, (v, frozenset(members))
    return True, None


def induced_min_cover(g: WeightedGraph, members) -> Fraction | None:
    """The cost the paper gives a coalition S: the least weight of an edge
    cover of the induced subgraph G[S], by trying every subset of E[S];
    None when G[S] has an isolated vertex and so no cover."""
    s = frozenset(members)
    inside = [e for e in g.edges if e[0] in s and e[1] in s]
    costs = [
        sum((g.weight(*e) for e in chosen), Fraction(0))
        for r in range(len(inside) + 1)
        for chosen in itertools.combinations(inside, r)
        if {v for e in chosen for v in e} == s
    ]
    return min(costs, default=None)


def parity_distances(g: WeightedGraph, start: int, start_parity: int = 0) -> list[list[int]]:
    """Distances in the parity double cover from (start, start_parity), with
    their own BFS: dist[v][p] for the state (v, p), vertex v reached by a
    walk of parity p, and -1 where it is unreachable."""
    dist = [[-1, -1] for _ in range(g.vertex_count)]
    dist[start][start_parity] = 0
    queue = deque([(start, start_parity)])
    while queue:
        v, p = queue.popleft()
        for u in g.neighbors(v):
            if dist[u][1 - p] == -1:
                dist[u][1 - p] = dist[v][p] + 1
                queue.append((u, 1 - p))
    return dist


def double_cover_odd_cycle(g: WeightedGraph) -> OddCycleReport:
    """Reference shortest odd cycle: a full BFS of the parity double cover
    from every vertex, O(|V| |E|), with ``parity_distances``.

    The shortest odd closed walk through s is the distance from (s, 0) to
    (s, 1); the lowest s with the least distance wins, and the witness is
    the lexicographically smallest shortest walk from (s, 0) to (s, 1).
    """
    best_len, best_start, forward = None, -1, None
    for s in range(g.vertex_count):
        dist = parity_distances(g, s)
        if dist[s][1] != -1 and (best_len is None or dist[s][1] < best_len):
            best_len, best_start, forward = dist[s][1], s, dist
    if best_len is None:
        return OddCycleReport(None, None)
    backward = parity_distances(g, best_start, 1)
    walk = [best_start]
    for step in range(1, best_len + 1):
        parity = step % 2
        walk.append(min(
            u for u in g.neighbors(walk[-1])
            if forward[u][parity] == step and backward[u][parity] == best_len - step
        ))
    return OddCycleReport(best_len, tuple(walk))


def unchoosing_solve(real_solve):
    """A ``solve`` whose covering (min) LP solutions lose their first
    chosen edge after solving: still 0/1, but neither feasible nor of the
    reported weight. Packing (max) LPs solve as before."""

    def solve(lp: LinearProgram, trace=None) -> LpSolution:
        solution = real_solve(lp, trace)
        if lp.sense == "min":
            values = list(solution.values)
            values[values.index(1)] = Fraction(0)
            solution = solution._replace(values=tuple(values))
        return solution

    return solve


def dense_solve(lp: LinearProgram, trace=None) -> LpSolution:
    """Reference simplex: the same two-phase tableau and Bland's rule as
    ``covergame.lp.solve``, but every pivot rebuilds each changed row in
    full, zeros included, and nothing is certified. Writes the same trace
    lines as ``solve``."""
    n, m = len(lp.objective), len(lp.constraints)
    minimize = lp.sense == "min"
    zero, one = Fraction(0), Fraction(1)

    def pivot(tableau, basis, z, row, col):
        prow = tableau[row] = [a / tableau[row][col] for a in tableau[row]]
        for i, r in enumerate(tableau):
            if i != row and r[col]:
                tableau[i] = [a - r[col] * b for a, b in zip(r, prow)]
        if z is not None and z[col]:
            z[:] = [a - z[col] * b for a, b in zip(z, prow)]
        basis[row] = col

    def reduced_costs(cost, tableau, basis):
        z = list(cost) + [zero]
        for row, b in zip(tableau, basis):
            if cost[b]:
                z = [a - cost[b] * r for a, r in zip(z, row)]
        return z

    def iterate(tableau, basis, z, phase):
        while True:
            col = next((j for j in range(len(z) - 1) if z[j] < 0), None)
            if col is None:
                if trace:
                    trace.write(f"phase {phase}: optimal\n")
                return "optimal"
            rows = [i for i, r in enumerate(tableau) if r[col] > 0]
            if not rows:
                if trace:
                    trace.write(f"phase {phase}: unbounded in column {col}\n")
                return "unbounded"
            row = min(rows, key=lambda i: (tableau[i][-1] / tableau[i][col], basis[i]))
            if trace:
                trace.write(f"phase {phase}: x{col} enters, x{basis[row]} leaves\n")
            pivot(tableau, basis, z, row, col)

    ge = [(con.relation == ">=") == (con.rhs >= 0) for con in lp.constraints]
    art_start = n + m
    width = art_start + sum(ge) + 1
    tableau, basis = [], []
    for i, con in enumerate(lp.constraints):
        sign = -1 if con.rhs < 0 else 1
        row = [sign * Fraction(a) for a in con.coeffs] + [zero] * (width - n - 1)
        row.append(sign * Fraction(con.rhs))
        row[n + i] = -one if ge[i] else one
        basis.append(n + i)
        if ge[i]:
            basis[i] = art_start + sum(ge[:i])
            row[basis[i]] = one
        tableau.append(row)

    if any(ge):
        z = reduced_costs([zero] * art_start + [one] * sum(ge), tableau, basis)
        iterate(tableau, basis, z, phase=1)
        if z[-1] != 0:
            return LpSolution("infeasible", None, None)
        for i in range(m):
            if basis[i] >= art_start:
                pivot(tableau, basis, None, i, next(j for j in range(art_start) if tableau[i][j]))
        tableau = [row[:art_start] + row[-1:] for row in tableau]

    cost = [Fraction(c) if minimize else -Fraction(c) for c in lp.objective] + [zero] * m
    z = reduced_costs(cost, tableau, basis)
    if iterate(tableau, basis, z, phase=2) == "unbounded":
        return LpSolution("unbounded", None, None)
    values = [zero] * n
    for row, b in zip(tableau, basis):
        if b < n:
            values[b] = row[-1]
    duals = tuple(
        z[n + i] if minimize == (con.relation == ">=") else -z[n + i]
        for i, con in enumerate(lp.constraints)
    )
    return LpSolution("optimal", tuple(values), -z[-1] if minimize else z[-1], duals)


def reference_canonicalize(g: WeightedGraph, values, cases=None) -> tuple[dict, tuple]:
    """Reference rounding of a feasible half-integral cover and its odd
    support cycles, self-contained and uncertified: each pass dispatches a
    simple cycle to its own walk from the smallest vertex, any other
    component that is not a simple odd cycle to a slack path or a flower,
    builds both alternating shifts and keeps the lexicographically smaller
    in edge order. Each pass adds one to ``cases`` (a Counter, if given)
    under its walk kind and under which walk indices, even or odd, the
    kept shift lowered."""
    half, slack_total = Fraction(1, 2), Fraction(3, 2)
    x = {e: Fraction(v) for e, v in values.items()}

    def total(y, v):
        return sum(y[(min(u, v), max(u, v))] for u in g.neighbors(v))

    def components():
        adj = {}
        for u, v in g.edges:
            if x[(u, v)] == half:
                adj.setdefault(u, []).append(v)
                adj.setdefault(v, []).append(u)
        seen, comps = set(), []
        for start in sorted(adj):
            if start in seen:
                continue
            reached, queue = {start}, deque([start])
            while queue:
                for u in adj[queue.popleft()]:
                    if u not in reached:
                        reached.add(u)
                        queue.append(u)
            seen |= reached
            comps.append({v: sorted(adj[v]) for v in reached})
        return comps

    def closed_walk(adj, start, first):
        walk = [start, first]
        while walk[-1] != start:
            walk.append(next(u for u in adj[walk[-1]] if u != walk[-2]))
        return walk

    def shortest_path(adj, a, b):
        to_b, queue = {b: 0}, deque([b])
        while queue:
            v = queue.popleft()
            for u in adj[v]:
                if u not in to_b:
                    to_b[u] = to_b[v] + 1
                    queue.append(u)
        path = [a]
        while path[-1] != b:
            path.append(min(u for u in adj[path[-1]] if to_b[u] == to_b[path[-1]] - 1))
        return path

    def walk_of(adj):
        if all(len(nbrs) == 2 for nbrs in adj.values()):
            if len(adj) % 2 == 1:
                return None, None
            start = min(adj)
            return closed_walk(adj, start, adj[start][0]), "even cycle"
        slack = sorted(v for v in adj if total(x, v) >= slack_total)
        if len(slack) >= 2:
            return shortest_path(adj, slack[0], slack[1]), "slack path"
        unused, petals = set(adj[slack[0]]), []
        while unused:
            petals.append(closed_walk(adj, slack[0], min(unused)))
            unused -= {petals[-1][1], petals[-1][-2]}
        for walk in petals:
            if len(walk) % 2 == 1:
                return walk, "even petal"
        return petals[0] + petals[1][1:], "odd-petal pair"

    while True:
        walk = kind = None
        for adj in components():
            walk, kind = walk_of(adj)
            if walk is not None:
                break
        if walk is None:
            return x, tuple(
                tuple(closed_walk(adj, min(adj), adj[min(adj)][0])) for adj in components()
            )
        edges = [(min(a, b), max(a, b)) for a, b in zip(walk, walk[1:])]
        first_down, first_up = dict(x), dict(x)
        for i, e in enumerate(edges):
            delta = half if i % 2 else -half
            first_down[e] += delta
            first_up[e] -= delta
        for y in (first_down, first_up):
            if any(total(y, v) < 1 for v in g.vertices()):
                raise AssertionError("alternating shift broke cover feasibility")
        x = min(first_down, first_up, key=lambda y: [y[e] for e in g.edges])
        if cases is not None:
            cases[kind] += 1
            cases["lowers even indices" if x is first_down else "lowers odd indices"] += 1

"""The blossom matching and Gallai's reduction, against oracles that share
no logic with them: a brute-force maximum matching, ``brute_min_cover``
within its budget and the branch and bound of ``min_edge_cover_exact``
within its cap. Each cost's covering dual is also rebuilt here from the
matching's duals and checked in Fractions. Every run is seeded."""

import itertools
import math
import random
from fractions import Fraction as F

import pytest
from helpers import complete_graph, cycle_graph, path_graph, random_graph

from covergame import WeightedGraph, allocate_alpha_core, brute_min_cover, min_edge_cover_exact
from covergame.covers import EXACT_CANDIDATE_CAP
from covergame.matching import gallai_cover, max_weight_matching
from covergame.oracle import DEFAULT_BUDGET

# Small blossom-heavy instances on 1-based vertices, as (u, v, gain): S-
# blossoms built, nested, kept into a later stage, relabeled T and expanded
# mid-stage (the classic cases of the blossom algorithm's published test
# lists). The last is a T-blossom reached away from its base, whose even
# side must be relabeled when it expands.
CLASSIC = [
    [(1, 2, 8), (1, 3, 9), (2, 3, 10), (3, 4, 7)],
    [(1, 2, 9), (1, 3, 9), (2, 3, 10), (2, 4, 8), (3, 5, 8), (4, 5, 10), (5, 6, 6)],
    [(1, 2, 9), (1, 3, 8), (2, 3, 10), (1, 4, 5), (4, 5, 4), (1, 6, 3)],
    [(1, 2, 9), (1, 3, 8), (2, 3, 10), (1, 4, 5), (4, 5, 3), (1, 6, 4)],
    [(1, 2, 9), (1, 3, 8), (2, 3, 10), (1, 4, 5), (4, 5, 3), (3, 6, 4)],
    [(1, 2, 10), (1, 7, 10), (2, 3, 12), (3, 4, 20), (3, 5, 20), (4, 5, 25), (5, 6, 10),
     (6, 7, 10), (7, 8, 8)],
    [(1, 2, 8), (1, 3, 8), (2, 3, 10), (2, 4, 12), (3, 5, 12), (4, 5, 14), (4, 6, 12),
     (5, 7, 12), (6, 7, 14), (7, 8, 12)],
    [(1, 2, 23), (1, 5, 22), (1, 6, 15), (2, 3, 25), (3, 4, 22), (4, 5, 25), (4, 8, 14),
     (5, 7, 13)],
    [(1, 2, 19), (1, 3, 20), (1, 8, 8), (2, 3, 25), (2, 4, 18), (3, 5, 18), (4, 5, 13),
     (4, 7, 7), (5, 6, 7)],
    [(1, 2, 40), (1, 3, 40), (2, 3, 60), (2, 4, 55), (3, 5, 55), (4, 5, 50), (1, 8, 15),
     (5, 7, 30), (7, 6, 10), (8, 10, 10), (4, 9, 30)],
    [(1, 2, 45), (1, 5, 45), (2, 3, 50), (3, 4, 45), (4, 5, 50), (1, 6, 30), (3, 9, 35),
     (4, 8, 35), (5, 7, 26), (9, 10, 5)],
    [(1, 2, 45), (1, 5, 45), (2, 3, 50), (3, 4, 45), (4, 5, 50), (1, 6, 30), (3, 9, 35),
     (4, 8, 26), (5, 7, 40), (9, 10, 5)],
    [(1, 2, 45), (1, 5, 45), (2, 3, 50), (3, 4, 45), (4, 5, 50), (1, 6, 30), (3, 9, 35),
     (4, 8, 28), (5, 7, 26), (9, 10, 5)],
    [(1, 2, 45), (1, 7, 45), (2, 3, 50), (3, 4, 45), (4, 5, 95), (4, 6, 94), (5, 6, 94),
     (6, 7, 50), (1, 8, 30), (3, 11, 35), (5, 9, 36), (7, 10, 26), (11, 12, 5)],
    [(1, 2, 3), (1, 4, 3), (1, 5, 4), (2, 4, 3), (2, 5, 4), (3, 5, 3)],
]


def brute_max_gain(n, edges):
    """The largest total gain of a matching: each vertex in turn stays
    single or takes one of its later neighbors."""
    gains = {(u, v) if u < v else (v, u): w for u, v, w in edges}

    def best(free):
        if not free:
            return 0
        v, rest = free[0], free[1:]
        options = [best(rest)]
        for i, u in enumerate(rest):
            if (v, u) in gains:
                options.append(gains[(v, u)] + best(rest[:i] + rest[i + 1:]))
        return max(options)

    return best(tuple(range(n)))


def matching_gain(edges, mate):
    return sum(w for u, v, w in edges if mate[u] == v)


def int_gains(edges):
    """The gains times the LCM of their denominators, as ints: the
    matching takes int gains only."""
    scale = math.lcm(*(F(w).denominator for _, _, w in edges))
    return [(u, v, int(w * scale)) for u, v, w in edges]


def check_matching(n, edges):
    mate = max_weight_matching(n, int_gains(edges))[0]
    assert all(mate[v] < 0 or mate[mate[v]] == v for v in range(n))
    assert matching_gain(edges, mate) == brute_max_gain(n, edges)


@pytest.mark.parametrize("case", range(len(CLASSIC)))
@pytest.mark.parametrize("scale", [1, F(1, 3)], ids=["int", "fraction"])
def test_classic_blossom_cases(case, scale):
    edges = [(u - 1, v - 1, w * scale) for u, v, w in CLASSIC[case]]
    check_matching(1 + max(max(u, v) for u, v, _ in edges), edges)


def test_random_gains_against_brute_force():
    # Ties, zero and negative gains, dense and sparse, ints and Fractions.
    rng = random.Random(11)
    for trial in range(300):
        n = rng.randint(1, 9)
        density = rng.choice((0.2, 0.5, 1.0))
        gain = (lambda: 1, lambda: rng.randint(-2, 6),
                lambda: F(rng.randint(-3, 40), rng.randint(1, 7)))[trial % 3]
        edges = [(u, v, gain()) for u, v in itertools.combinations(range(n), 2) if rng.random() < density]
        check_matching(n, edges)


def shuffled_union(rng, parts):
    """The (n, [(u, v, w)]) parts side by side, their vertex ids shuffled
    together so that the components interleave."""
    ids = list(range(sum(n for n, _ in parts)))
    rng.shuffle(ids)
    edges, offset = [], 0
    for n, part in parts:
        edges += [(ids[u + offset], ids[v + offset], w) for u, v, w in part]
        offset += n
    return len(ids), edges


@pytest.mark.parametrize("fractional", [False, True], ids=["int", "fraction"])
def test_matching_at_scale_against_brute_force(fractional):
    # 64 gain components, n >= 400: the search runs across hundreds of
    # vertices, and the optimum is the sum of each component's own.
    rng = random.Random(30 + fractional)
    gain = ((lambda: F(rng.randint(-3, 40), rng.randint(1, 7))) if fractional
            else (lambda: rng.randint(-2, 12)))
    parts = []
    for _ in range(64):
        n = rng.randint(5, 9)
        density = rng.choice((0.3, 0.6, 1.0))
        parts.append((n, [(u, v, gain()) for u, v in itertools.combinations(range(n), 2)
                          if rng.random() < density]))
    n, edges = shuffled_union(rng, parts)
    assert n >= 400
    mate = max_weight_matching(n, int_gains(edges))[0]
    assert all(mate[v] < 0 or mate[mate[v]] == v for v in range(n))
    assert matching_gain(edges, mate) == sum(brute_max_gain(*part) for part in parts)


@pytest.mark.parametrize("fractional", [False, True], ids=["int", "fraction"])
def test_grand_cost_at_scale_against_brute_force(fractional):
    # 64 graph components within brute_min_cover's budget, n >= 500: c(V)
    # is the sum of each component's brute-force cover.
    rng = random.Random(130 + fractional)
    weights = {"max_numerator": 12, "max_denominator": 4 if fractional else 1}
    components = [random_graph(rng, min_vertices=6, max_vertices=11, max_extra_edges=5, **weights)
                  for _ in range(64)]
    assert all(len(c.edges) <= DEFAULT_BUDGET.max_cover_edges for c in components)
    n, edges = shuffled_union(rng, [(c.vertex_count, [(u, v, c.weight(u, v)) for u, v in c.edges])
                                    for c in components])
    assert n >= 500 and fractional == any(w.denominator > 1 for _, _, w in edges)
    expected = sum(brute_min_cover(c, range(c.vertex_count)) for c in components)
    assert gallai_cover(WeightedGraph(n, edges))[0] == expected


def test_grand_cost_with_distinct_300_digit_denominators():
    # Every weight has its own 300-digit denominator, so their LCM has
    # thousands of digits; c(V) is still the sum of the components' brute
    # force covers.
    rng = random.Random(300)
    components = []
    for _ in range(5):
        c = random_graph(rng, min_vertices=6, max_vertices=9, max_extra_edges=4)
        q = [rng.randint(10**299, 10**300 - 1) for _ in c.edges]
        components.append(WeightedGraph(c.vertex_count, [(u, v, F(rng.randint(x, 12 * x), x))
                                                          for (u, v), x in zip(c.edges, q)]))
    assert all(len(c.edges) <= DEFAULT_BUDGET.max_cover_edges for c in components)
    n, edges = shuffled_union(rng, [(c.vertex_count, [(u, v, c.weight(u, v)) for u, v in c.edges])
                                    for c in components])
    denominators = [w.denominator for _, _, w in edges]
    assert len(edges) >= 30 and len(set(denominators)) == len(edges)
    assert math.lcm(*denominators) > 10**6000
    expected = sum(brute_min_cover(c, range(c.vertex_count)) for c in components)
    assert gallai_cover(WeightedGraph(n, edges))[0] == expected


def graph_pairs():
    """(family, graph, coalition) triples, seeded."""
    rng = random.Random(29)

    def coalitions(g, count, max_size=None):
        n = g.vertex_count
        for _ in range(count):
            yield rng.sample(range(n), rng.randint(1, max_size or n))

    for _ in range(80):  # unit weights: many tied optima
        g = random_graph(rng, max_vertices=8, max_extra_edges=4, max_numerator=1, max_denominator=1)
        for s in coalitions(g, 4):
            yield "unit", g, s
    for _ in range(50):  # zero weights
        g = random_graph(rng, max_vertices=8, max_extra_edges=4, min_numerator=0, max_numerator=2,
                         max_denominator=1)
        for s in coalitions(g, 4):
            yield "zero", g, s
    for _ in range(50):  # 6-digit denominators
        n = rng.randint(2, 8)
        g = random_graph(rng, max_vertices=n, min_vertices=n, max_extra_edges=4)
        q = [rng.randint(100_000, 999_999) for _ in g.edges]
        g = WeightedGraph(n, [(u, v, F(rng.randint(x, 9 * x), x)) for (u, v), x in zip(g.edges, q)])
        for s in coalitions(g, 4):
            yield "six-digit", g, s
    for _ in range(50):  # one to three members: mostly boundary candidates
        g = random_graph(rng, min_vertices=5, max_vertices=10, max_extra_edges=5, max_numerator=6,
                         max_denominator=2)
        for s in coalitions(g, 4, max_size=3):
            yield "boundary", g, s
    for n in range(2, 6):  # dense K_n, every coalition
        for weights in ("unit", "int", "fraction"):
            draw = {"unit": lambda: 1, "int": lambda: rng.randint(0, 5),
                    "fraction": lambda: F(rng.randint(1, 12), rng.randint(1, 4))}[weights]
            g = WeightedGraph(n, [(u, v, F(draw())) for u, v in itertools.combinations(range(n), 2)])
            for size in range(1, n + 1):
                for s in itertools.combinations(range(n), size):
                    yield "dense", g, list(s)
    for n, count in ((6, 4), (7, 12)):  # K7's six or seven members: the branch and bound alone
        g = WeightedGraph(n, [(u, v, F(rng.randint(0, 4))) for u, v in itertools.combinations(range(n), 2)])
        for _ in range(count):
            yield "dense", g, rng.sample(range(n), rng.randint(n - 1, n))


def test_gallai_cost_agrees_with_both_oracles():
    checked = {"brute": 0, "exact": 0}
    families = set()
    for pairs, (family, g, s) in enumerate(graph_pairs(), 1):
        cost, cover = gallai_cover(g, s)
        members = set(s)
        candidates = [e for e in g.edges if members.intersection(e)]
        assert set(cover) <= set(candidates)
        assert all(any(v in e for e in cover) for v in members)
        assert sum(g.weight(*e) for e in cover) == cost
        if len(candidates) <= DEFAULT_BUDGET.max_cover_edges:
            assert cost == brute_min_cover(g, s), (family, g.edges, s)
            checked["brute"] += 1
        if len(candidates) <= EXACT_CANDIDATE_CAP:
            assert cost == min_edge_cover_exact(g, s).weight, (family, g.edges, s)
            checked["exact"] += 1
        families.add(family)
    assert pairs >= 1000 and checked["exact"] == pairs and checked["brute"] >= 1000
    assert families == {"unit", "zero", "six-digit", "boundary", "dense"}


@pytest.mark.parametrize("k", [7, F(1, 3), F(999983, 10**6)], ids=["7", "1/3", "999983/10^6"])
def test_scaling_every_weight_scales_the_cost_and_keeps_the_cover(k):
    # The search runs on the weights times the LCM of their denominators,
    # so a common factor may change that LCM but not the cover.
    for family, g, s in graph_pairs():
        scaled = WeightedGraph(g.vertex_count, [(u, v, k * g.weight(u, v)) for u, v in g.edges])
        cost, cover = gallai_cover(g, s)
        assert gallai_cover(scaled, s) == (k * cost, cover), (family, g.edges, s)


@pytest.mark.parametrize("n", [8, 13, 40])
def test_unit_complete_graphs_past_the_cap(n):
    # c(S) = ceil(|S|/2) on unit K_n: one edge covers at most two members.
    g = complete_graph(n)
    rng = random.Random(n)
    for size in (1, 2, n // 2, n - 1, n):
        s = rng.sample(range(n), size)
        assert gallai_cover(g, s)[0] == (size + 1) // 2


def test_weights_beyond_float_range_stay_exact():
    # float() of 10**400/3 overflows, and a 1,000-digit denominator rounds
    # to 0.0 in a float: only exact arithmetic gives these totals.
    huge = F(10**400, 3)
    cost, cover = gallai_cover(path_graph([huge, 1, huge]))
    assert type(cost) is F and cost == 2 * huge
    assert cover == ((0, 1), (2, 3))
    q = 10**999 + 7
    tiny = F(1, q)
    assert gallai_cover(cycle_graph(3, tiny))[0] == 2 * tiny
    g = WeightedGraph(4, [(0, 1, tiny), (1, 2, F(q + 1, q)), (2, 3, F(3, q)), (0, 3, huge)])
    assert gallai_cover(g)[0] == 4 * tiny
    report = allocate_alpha_core(cycle_graph(5, huge))
    assert report.grand_cost == 3 * huge and report.ratio == F(5, 6)
    report = allocate_alpha_core(cycle_graph(7, tiny))
    assert report.grand_cost == 4 * tiny and report.ratio == F(7, 8)


def classic_instance(case, scale=1):
    """CLASSIC[case] as a Gallai instance on members 0..k-1: each member v
    has a pendant edge to its own non-member v + k, of weight B, one more
    than the largest gain, and each gain g_uv becomes an inner edge of
    weight 2B - g_uv. So every b_v is B, every inner edge gains its own
    g_uv, and c(members) = kB less the largest gain. Returns (g, k, B, that
    cost), all times scale."""
    gains = [(u - 1, v - 1, w) for u, v, w in CLASSIC[case]]
    k = 1 + max(max(u, v) for u, v, _ in gains)
    top = 1 + max(w for _, _, w in gains)
    edges = [(v, v + k, F(top * scale)) for v in range(k)]
    edges += [(u, v, F((2 * top - w) * scale)) for u, v, w in gains]
    return WeightedGraph(2 * k, edges), k, top * scale, (k * top - brute_max_gain(k, gains)) * scale


@pytest.mark.parametrize("case", range(len(CLASSIC)))
@pytest.mark.parametrize("scale", [1, F(1, 3)], ids=["int", "fraction"])
def test_classic_blossom_cases_through_gallai(case, scale):
    g, k, _, expected = classic_instance(case, scale)
    assert gallai_cover(g, range(k))[0] == expected


@pytest.fixture
def captured(monkeypatch):
    """Every (mate, dual, parent) that gallai_cover gets from the matching."""
    import covergame.matching as matching

    real, seen = matching.max_weight_matching, []

    def recording(n, edges):
        seen.append(real(n, edges))
        return seen[-1]

    monkeypatch.setattr(matching, "max_weight_matching", recording)
    return seen


def covering_dual(g, s, result):
    """The covering dual of c(S) rebuilt in Fractions from the matching's
    final duals: y by member, and z as (odd set, value) pairs, one per
    blossom that holds a member."""
    _, dual, parent = result
    members = set(s)
    candidates = [e for e in g.edges if members.intersection(e)]
    scale = math.lcm(*(g.weight(*e).denominator for e in candidates))
    b = {v: min(g.weight(*e) for e in candidates if v in e) for v in members}
    holders = {}  # member -> the blossoms above it
    for v in members:
        holders[v], x = set(), v
        while parent[x] >= 0:
            x = parent[x]
            holders[v].add(x)
    y = {v: b[v] - F(dual[v], 2 * scale) - sum(F(dual[x], scale) for x in holders[v]) for v in members}
    z = [(frozenset(v for v in members if x in holders[v]), F(dual[x], scale))
         for x in set().union(*holders.values())]
    return y, z


def check_covering_dual(g, cost, y, z):
    """(y, z) is feasible for the edge-cover LP of the members of y with
    odd-set rows, and worth cost."""
    assert min(y.values()) >= 0
    assert all(value >= 0 and len(odd) % 2 for odd, value in z)
    for e in g.edges:
        inside = [v for v in e if v in y]
        touching = sum(value for odd, value in z if odd.intersection(e))
        assert not inside or sum(y[v] for v in inside) + touching <= g.weight(*e), e
    assert sum(y.values()) + sum(value * (len(odd) + 1) / 2 for odd, value in z) == cost


def odd_cycle_pairs():
    """(family, graph, coalition) triples on unit odd cycles with chords of
    weight 1 or 2: ties everywhere and blossoms in most matchings. Seeded."""
    rng = random.Random(33)
    for _ in range(150):
        k = rng.choice((3, 5, 7, 9, 11))
        edges = {(i, (i + 1) % k): F(1) for i in range(k)}
        for _ in range(rng.randint(0, 3)):
            u, v = rng.sample(range(k), 2)
            edges.setdefault((u, v), F(rng.randint(1, 2)))
        g = WeightedGraph(k, [(u, v, w) for (u, v), w in edges.items() if (v, u) not in edges or u < v])
        yield "odd-cycle", g, list(range(k))
        for _ in range(2):
            yield "odd-cycle", g, rng.sample(range(k), rng.randint(max(1, k - 2), k))


def test_covering_dual_certifies_every_cost(captured):
    # The (y, z) read off the matching's duals, rebuilt and checked here in
    # Fractions: feasible and worth exactly c(S), blossoms or none.
    pairs = with_blossom = 0
    for _, g, s in itertools.chain(graph_pairs(), odd_cycle_pairs()):
        cost = gallai_cover(g, s)[0]
        y, z = covering_dual(g, s, captured[-1])
        check_covering_dual(g, cost, y, z)
        pairs += 1
        with_blossom += any(value > 0 for _, value in z)
    assert pairs >= 1000 and with_blossom >= 200


def test_a_wrong_lcm_fails_the_certificate(monkeypatch):
    # With max in place of lcm, L is 3 and 1/2 scales to 1, as 1/3 does:
    # the dual's value, 2/3, is not the cover's own weight, 5/6.
    import covergame.matching as matching

    g = path_graph([F(1, 2), F(1, 3)])
    assert gallai_cover(g)[0] == F(5, 6)
    monkeypatch.setattr(matching, "lcm", max)
    with pytest.raises(RuntimeError):
        gallai_cover(g)


def test_a_wrong_matching_fails_its_certificate(monkeypatch, captured):
    # Corrupted matching output fails the covering-dual check: one matched
    # pair unmatched; one positive blossom dual set to 0; one vertex dual
    # past 2b_v; one unit of vertex dual moved between two members, which
    # keeps the dual's value but overloads an edge.
    import covergame.matching as matching

    g, k, top, expected = classic_instance(1)
    assert gallai_cover(g, range(k))[0] == expected
    mate, dual, parent = captured[0]
    y = covering_dual(g, range(k), captured[0])[0]
    u = next(v for v in range(k) if mate[v] >= 0)
    rich = max((v for v in range(k) if v not in (u, mate[u])), key=y.get)
    assert y[rich] >= F(1, 2) and any(dual[b] > 0 for b in range(2 * k, 4 * k))

    def unmatch(mate, dual, parent):
        mate[mate[u]] = mate[u] = -1

    def unblossom(mate, dual, parent):
        dual[next(b for b in range(2 * k, 4 * k) if dual[b] > 0)] = 0

    def overdraw(mate, dual, parent):
        dual[u] = 2 * top + 1

    def shift(mate, dual, parent):
        dual[u] -= 1
        dual[rich] += 1

    recording = matching.max_weight_matching
    for fault in (unmatch, unblossom, overdraw, shift):
        def corrupted(n, edges, fault=fault):
            result = recording(n, edges)
            fault(*result)
            return result

        monkeypatch.setattr(matching, "max_weight_matching", corrupted)
        with pytest.raises(RuntimeError):
            gallai_cover(g, range(k))

"""Brute-force oracles: frozen examples, budgets, and agreement with the
fast implementations."""

import itertools
import random
from fractions import Fraction

import pytest
from helpers import complete_graph, cycle_graph, path_graph, random_graph, star_graph, triangle

from covergame import (
    CapExceededError,
    WeightedGraph,
    brute_core_check,
    brute_fractional_optimum,
    brute_min_cover,
    check_core_dual,
    fractional_cover_lp,
    min_edge_cover_exact,
    solve,
)
from covergame.oracle import GRID_EDGE_CAP
from covergame.rationals import ONE, ZERO

F = Fraction
HALF = F(1, 2)


def reference_grid_optimum(g):
    """The grid oracle's first formulation, kept as the reference for its
    Gray-code walk: every point of {0, 1, 2}^m in product order, a vertex
    covered when its incident coordinates sum to at least 2, each cover
    weighed in Fractions and the best one halved."""
    incident = [
        tuple(j for j, e in enumerate(g.edges) if v in e) for v in range(g.vertex_count)
    ]
    weights = [g.weight(*e) for e in g.edges]
    best = None
    for point in itertools.product((0, 1, 2), repeat=g.edge_count):
        if all(sum(point[j] for j in edges) >= 2 for edges in incident):
            weight = sum(w * x for w, x in zip(weights, point) if x)
            if best is None or weight < best:
                best = weight
    return Fraction(best) / 2


def grid_corpus(rng, count):
    """Graphs with at most 9 edges and weights k/q, q in 1, 2, 7 and 10^6.
    Three in four are random graphs on 2 to 7 vertices whose weights draw
    k from 0..4 and q per edge, so a fifth are zero and one graph mixes
    denominators. Every fourth is an odd cycle of length 3 to 9 with one q
    and k from 1..3, where a cover of halves often beats every integral
    one."""
    denominators = (1, 2, 7, 10**6)
    for i in range(count):
        if i % 4:
            g = random_graph(rng, max_vertices=7, max_extra_edges=3)
            weights = [F(rng.randint(0, 4), rng.choice(denominators)) for _ in g.edges]
        else:
            g = cycle_graph(rng.choice((3, 5, 7, 9)))
            q = rng.choice(denominators)
            weights = [F(rng.randint(1, 3), q) for _ in g.edges]
        yield WeightedGraph(g.vertex_count, [(*e, w) for e, w in zip(g.edges, weights)])


class TestBruteMinCover:
    def test_triangle(self):
        assert brute_min_cover(triangle(), {0, 1, 2}) == 2

    def test_single_vertex(self):
        g = path_graph([F(5), F(2)])
        assert brute_min_cover(g, {1}) == 2

    def test_star(self):
        assert brute_min_cover(star_graph(3), range(4)) == 3

    def test_budget(self):
        message = "^21 candidate edges exceed the oracle budget of 20$"
        with pytest.raises(CapExceededError, match=message):
            brute_min_cover(path_graph([1] * 21), range(22))

    def test_agrees_with_exact_solver(self):
        # 1,000 random (graph, coalition) pairs and the grand coalitions of
        # K3 to K5, each with at most 12 candidate edges. Weights in
        # {0, 1/2, 1, 3/2, 2, 3} give ties and zeros. In dense graphs the
        # coalitions of one or two vertices have mostly boundary edges.
        rng = random.Random(83)
        ties = dict(min_numerator=0, max_numerator=3, max_denominator=2)
        pairs = [(complete_graph(k), range(k)) for k in (3, 4, 5)]
        for i in range(700):
            g = random_graph(rng, max_vertices=7, max_extra_edges=5, **(ties if i % 2 else {}))
            members = [v for v in g.vertices() if rng.random() < 0.7] or [0]
            pairs.append((g, members))
        for _ in range(300):
            g = random_graph(rng, min_vertices=5, max_vertices=7, max_extra_edges=15, **ties)
            pairs.append((g, rng.sample(range(g.vertex_count), rng.randint(1, 2))))
        for g, members in pairs:
            s = set(members)
            assert sum(1 for u, v in g.edges if u in s or v in s) <= 12
            cert = min_edge_cover_exact(g, members)
            chosen = [e for e, x in cert.values.items() if x]
            # No search budget leaks into a result: the weight is exact,
            # and every value is one of the shared constants.
            assert type(cert.weight) is Fraction
            assert all(x is ZERO or x is ONE for x in cert.values.values())
            assert s <= {v for e in chosen for v in e}
            assert sum(g.weight(*e) for e in chosen) == cert.weight == brute_min_cover(g, members)


class TestBruteFractionalOptimum:
    def test_triangle_grid(self):
        assert brute_fractional_optimum(triangle()) == F(3, 2)

    def test_single_edge(self):
        assert brute_fractional_optimum(path_graph([F(9, 4)])) == F(9, 4)

    def test_four_cycle(self):
        assert brute_fractional_optimum(cycle_graph(4)) == 2

    def test_budget(self):
        message = "^13 edges exceed the grid oracle budget of 12$"
        with pytest.raises(CapExceededError, match=message):
            brute_fractional_optimum(path_graph([1] * 13))

    def test_gray_code_walk_agrees_with_the_product_grid(self):
        rng = random.Random(211)
        for g in grid_corpus(rng, 320):
            assert g.edge_count <= 9
            assert brute_fractional_optimum(g) == reference_grid_optimum(g), g.edges

    def test_at_the_cap_agrees_with_lp(self):
        # Three triangles joined in a ring: 9 vertices, 12 edges. A zero
        # edge, denominators 1, 2, 7 and 10^6, and halves on two triangles
        # beat every integral cover.
        M = 10**6
        g = WeightedGraph(9, [
            (0, 1, ZERO), (1, 2, ONE), (0, 2, ONE),
            (3, 4, F(2, 7)), (4, 5, F(2, 7)), (3, 5, F(3, 7)),
            (6, 7, F(1, M)), (7, 8, F(3, M)), (6, 8, F(2, M)),
            (2, 3, F(5)), (5, 6, HALF), (0, 8, F(3)),
        ])
        assert g.edge_count == GRID_EDGE_CAP
        optimum = brute_fractional_optimum(g)
        assert optimum == solve(fractional_cover_lp(g)).objective_value == F(1500003, M)
        assert optimum < min_edge_cover_exact(g).weight

    def test_agrees_with_lp(self):
        rng = random.Random(89)
        for _ in range(25):
            g = random_graph(rng, max_vertices=6, max_extra_edges=2)
            assert brute_fractional_optimum(g) == solve(fractional_cover_lp(g)).objective_value


class TestBruteCoreCheck:
    def test_triangle_halves(self):
        assert brute_core_check(triangle(), (HALF, HALF, HALF)) == (True, None)

    def test_triangle_all_ones_fails(self):
        a = (F(1), F(1), F(1))
        ok, witness = brute_core_check(triangle(), a)
        assert not ok
        # the returned witness is a genuine violation, and so is the grand
        # coalition itself (3 > 2)
        assert sum(a[v] for v in witness) > brute_min_cover(triangle(), witness)
        assert sum(a) == 3 > brute_min_cover(triangle(), {0, 1, 2}) == 2

    def test_zero_allocation(self):
        assert brute_core_check(triangle(), (F(0),) * 3)[0]

    def test_budget(self):
        message = "^13 vertices exceed the coalition oracle budget of 12$"
        with pytest.raises(CapExceededError, match=message):
            brute_core_check(path_graph([1] * 12), (F(0),) * 13)

    def test_negative_allocation_rejected(self):
        with pytest.raises(ValueError):
            brute_core_check(triangle(), (F(-1), F(0), F(0)))

    def test_agrees_with_dual_checker(self):
        rng = random.Random(97)
        for _ in range(40):
            g = random_graph(rng, max_vertices=5, max_extra_edges=2)
            a = tuple(F(rng.randint(0, 5), rng.randint(1, 3)) for _ in range(g.vertex_count))
            assert brute_core_check(g, a)[0] == check_core_dual(g, a)[0]


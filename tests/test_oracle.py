"""Brute-force oracles: frozen examples, budgets, and agreement with the
fast implementations."""

import random
from fractions import Fraction

import pytest
from helpers import cycle_graph, path_graph, random_graph, star_graph, triangle

from covergame import (
    CapExceededError,
    OracleBudget,
    brute_core_check,
    brute_fractional_optimum,
    brute_min_cover,
    check_core_dual,
    fractional_cover_lp,
    min_edge_cover_exact,
    solve,
)

F = Fraction
HALF = F(1, 2)


class TestBruteMinCover:
    def test_triangle(self):
        assert brute_min_cover(triangle(), {0, 1, 2}) == 2

    def test_single_vertex(self):
        g = path_graph([F(5), F(2)])
        assert brute_min_cover(g, {1}) == 2

    def test_star(self):
        assert brute_min_cover(star_graph(3), range(4)) == 3

    def test_budget(self):
        with pytest.raises(CapExceededError):
            brute_min_cover(triangle(), {0, 1, 2}, OracleBudget(max_cover_edges=2))

    def test_agrees_with_exact_solver(self):
        rng = random.Random(83)
        for _ in range(30):
            g = random_graph(rng, max_vertices=6, max_extra_edges=3)
            members = {v for v in range(g.vertex_count) if rng.random() < 0.7} or {0}
            assert brute_min_cover(g, members) == min_edge_cover_exact(g, members).weight


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
        with pytest.raises(CapExceededError):
            brute_core_check(triangle(), (F(0),) * 3, OracleBudget(max_coalition_vertices=2))

    def test_negative_allocation_rejected(self):
        with pytest.raises(ValueError):
            brute_core_check(triangle(), (F(-1), F(0), F(0)))

    def test_agrees_with_dual_checker(self):
        rng = random.Random(97)
        for _ in range(40):
            g = random_graph(rng, max_vertices=5, max_extra_edges=2)
            a = tuple(F(rng.randint(0, 5), rng.randint(1, 3)) for _ in range(g.vertex_count))
            assert brute_core_check(g, a)[0] == check_core_dual(g, a)[0]


class TestBudgetType:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            OracleBudget(max_cover_edges=0)

    def test_replace_checks_like_the_constructor(self):
        assert OracleBudget()._replace(max_cover_edges=5) == OracleBudget(5, 12)
        with pytest.raises(ValueError):
            OracleBudget()._replace(max_coalition_vertices=0)

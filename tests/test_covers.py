"""Integral, bipartite, and half-integral covers plus the odd-cycle
canonicalization."""

import itertools
import random
from fractions import Fraction

import pytest
from helpers import (
    cycle_graph,
    path_graph,
    random_bipartite_graph,
    random_graph,
    random_nonbipartite_graph,
    star_graph,
    triangle,
)

from covergame import (
    CapExceededError,
    WeightedGraph,
    brute_fractional_optimum,
    brute_min_cover,
    canonicalize_to_odd_cycles,
    cover_weight,
    fractional_cover_lp,
    fractional_support_cycles,
    half_integral_cover,
    is_feasible_cover,
    is_half_integral,
    min_edge_cover_exact,
    shortest_odd_cycle,
    solve,
)
from covergame import covers

F = Fraction
HALF = F(1, 2)


def support_is_disjoint_odd_cycles(g, values):
    """Independent inspection: every fractional component is a simple odd
    cycle (components are vertex-disjoint by definition)."""
    adjacency = {}
    for u, v in g.edges:
        x = values[(u, v)]
        if x == HALF:
            adjacency.setdefault(u, set()).add(v)
            adjacency.setdefault(v, set()).add(u)
        elif x not in (0, 1):
            return False
    seen = set()
    for start in adjacency:
        if start in seen:
            continue
        stack, comp = [start], set()
        while stack:
            v = stack.pop()
            if v in comp:
                continue
            comp.add(v)
            stack.extend(adjacency[v] - comp)
        seen |= comp
        edge_count = sum(len(adjacency[v]) for v in comp) // 2
        if any(len(adjacency[v]) != 2 for v in comp) or edge_count != len(comp) or len(comp) % 2 == 0:
            return False
    return True


class TestExactCover:
    def test_triangle_grand_coalition(self):
        cert = min_edge_cover_exact(triangle())
        assert cert.weight == 2
        assert cert.kind == "integral"
        assert sum(1 for x in cert.values.values() if x) == 2

    def test_five_cycle(self):
        assert min_edge_cover_exact(cycle_graph(5)).weight == 3

    def test_path_single_vertex_coalition(self):
        g = path_graph([1, 3])
        cert = min_edge_cover_exact(g, {0})
        assert cert.weight == 1
        assert cert.values[(0, 1)] == 1 and cert.values[(1, 2)] == 0

    def test_cover_is_feasible_for_coalition(self):
        rng = random.Random(41)
        for _ in range(25):
            g = random_graph(rng)
            members = {v for v in range(g.vertex_count) if rng.random() < 0.6} or {0}
            cert = min_edge_cover_exact(g, members)
            chosen = {e for e, x in cert.values.items() if x}
            assert all(any(v in e for e in chosen) for v in members)
            assert cert.weight == sum(g.weight(*e) for e in chosen)

    def test_cap(self):
        with pytest.raises(CapExceededError):
            min_edge_cover_exact(triangle(), max_candidate_edges=2)

    def test_zero_weight_edges(self):
        g = WeightedGraph(3, [(0, 1, F(0)), (1, 2, F(0)), (0, 2, F(5))])
        assert min_edge_cover_exact(g).weight == 0


class TestBipartiteCover:
    """Bipartite graphs: half_integral_cover returns the integral optimum."""

    def test_single_edge(self):
        cert = half_integral_cover(path_graph([F(5, 2)]))
        assert cert.weight == F(5, 2)
        assert cert.values[(0, 1)] == 1

    def test_six_cycle_matches_brute_force(self):
        g = cycle_graph(6)
        assert brute_min_cover(g, range(6)) == 3
        cert = half_integral_cover(g)
        assert cert.weight == 3

    def test_star_needs_every_edge(self):
        cert = half_integral_cover(star_graph(3))
        assert cert.weight == 3
        assert all(x == 1 for x in cert.values.values())

    def test_dual_witness_totals_match(self):
        rng = random.Random(43)
        for _ in range(15):
            g = random_bipartite_graph(rng)
            cert = half_integral_cover(g)
            assert cert.dual_witness is not None
            assert sum(cert.dual_witness) == cert.weight
            assert all(x in (0, 1) for x in cert.values.values())
            assert is_feasible_cover(g, cert.values)


class TestHalfIntegralCover:
    def test_triangle(self):
        cert = half_integral_cover(triangle())
        assert cert.weight == F(3, 2)
        assert all(x == HALF for x in cert.values.values())
        assert sum(cert.dual_witness) == cert.weight

    def test_single_edge(self):
        cert = half_integral_cover(path_graph([F(7, 2)]))
        assert cert.weight == F(7, 2)
        assert cert.values[(0, 1)] == 1

    def test_five_cycle(self):
        assert half_integral_cover(cycle_graph(5)).weight == F(5, 2)

    def test_matches_lp_and_grid_oracle(self):
        rng = random.Random(47)
        for _ in range(30):
            g = random_graph(rng, max_vertices=7, max_extra_edges=2)
            cert = half_integral_cover(g)
            assert is_half_integral(cert.values)
            assert is_feasible_cover(g, cert.values)
            assert cert.weight == cover_weight(g, cert.values)
            assert cert.weight == solve(fractional_cover_lp(g)).objective_value
            assert cert.weight == brute_fractional_optimum(g)

    def test_bipartite_output_is_integral(self):
        rng = random.Random(53)
        for _ in range(15):
            g = random_bipartite_graph(rng, max_vertices=8)
            cert = half_integral_cover(g)
            assert all(x in (0, 1) for x in cert.values.values())
            assert cert.kind == "half-integral"

    def test_unit_odd_cycles_cost_half_length(self):
        for k in (3, 5, 7, 9):
            g = cycle_graph(k)
            assert half_integral_cover(g).weight == F(k, 2)
            assert min_edge_cover_exact(g).weight == F(k + 1, 2)


class TestCanonicalization:
    def test_triangle_fixed_point(self):
        g = triangle()
        x = {e: HALF for e in g.edges}
        assert canonicalize_to_odd_cycles(g, x) == x

    def test_even_cycle_rounds_to_integral(self):
        g = cycle_graph(4)
        x = {e: HALF for e in g.edges}
        result = canonicalize_to_odd_cycles(g, x)
        assert cover_weight(g, result) == 2
        assert all(v in (0, 1) for v in result.values())
        chosen = {e for e, v in result.items() if v}
        # enumerate the weight-2 integral covers of the 4-cycle
        minimal = [
            set(combo)
            for combo in itertools.combinations(g.edges, 2)
            if all(any(v in e for e in combo) for v in range(4))
        ]
        assert chosen in minimal

    def test_infeasible_rejected(self):
        g = path_graph([1, 1])
        with pytest.raises(ValueError, match="feasible"):
            canonicalize_to_odd_cycles(g, {e: HALF for e in g.edges})

    def test_non_half_integral_rejected(self):
        g = triangle()
        with pytest.raises(ValueError, match="half-integral"):
            canonicalize_to_odd_cycles(g, {e: F(1, 3) for e in g.edges})

    def test_non_optimal_rejected(self):
        g = triangle()
        with pytest.raises(ValueError, match="optimal"):
            canonicalize_to_odd_cycles(g, {e: F(1) for e in g.edges})

    def test_missing_edge_rejected(self):
        g = triangle()
        with pytest.raises(ValueError, match="every edge"):
            canonicalize_to_odd_cycles(g, {(0, 1): F(1)})

    def test_flower_component(self):
        # two unit triangles sharing vertex 0, with the far edges weighted so
        # the all-halves flower is optimal (dual certificate total is 4)
        g = WeightedGraph(
            5,
            [(0, 1, F(1)), (0, 2, F(1)), (1, 2, F(2)),
             (0, 3, F(1)), (0, 4, F(1)), (3, 4, F(2))],
        )
        x = {e: HALF for e in g.edges}
        assert cover_weight(g, x) == solve(fractional_cover_lp(g)).objective_value == 4
        result = canonicalize_to_odd_cycles(g, x)
        assert cover_weight(g, result) == 4
        assert is_feasible_cover(g, result)
        assert support_is_disjoint_odd_cycles(g, result)

    def test_shared_edge_component(self):
        # two triangles sharing a zero-weight edge; all-halves is optimal
        g = WeightedGraph(
            4,
            [(0, 1, F(1)), (0, 2, F(1)), (1, 2, F(0)), (1, 3, F(1)), (2, 3, F(1))],
        )
        x = {e: HALF for e in g.edges}
        assert cover_weight(g, x) == solve(fractional_cover_lp(g)).objective_value == 2
        result = canonicalize_to_odd_cycles(g, x)
        assert cover_weight(g, result) == 2
        assert support_is_disjoint_odd_cycles(g, result)

    def test_two_disjoint_triangles_fixed_point(self):
        g = WeightedGraph(
            6,
            [(0, 1, F(1)), (0, 2, F(1)), (1, 2, F(1)),
             (3, 4, F(1)), (3, 5, F(1)), (4, 5, F(1))],
        )
        x = {e: HALF for e in g.edges}
        result = canonicalize_to_odd_cycles(g, x)
        assert result == x
        assert len(fractional_support_cycles(g, result)) == 2

    def test_random_properties(self):
        rng = random.Random(59)
        for _ in range(40):
            g = random_graph(rng, max_vertices=8, max_extra_edges=3)
            cert = half_integral_cover(g, include_dual_witness=False)
            result = canonicalize_to_odd_cycles(g, cert.values)
            assert cover_weight(g, result) == cert.weight
            assert is_feasible_cover(g, result)
            assert is_half_integral(result)
            assert support_is_disjoint_odd_cycles(g, result)
            fractional_support_cycles(g, result)  # must not raise

    def test_integral_ratio_bounded_by_gap(self):
        rng = random.Random(61)
        for _ in range(25):
            g = random_graph(rng, max_vertices=7, max_extra_edges=2)
            integral = min_edge_cover_exact(g).weight
            fractional = half_integral_cover(g, include_dual_witness=False).weight
            assert integral >= fractional
            ell = shortest_odd_cycle(g).length
            if fractional:
                bound = F(1) if ell is None else 1 + F(1, ell)
                assert integral <= bound * fractional

    def test_support_cycle_reporting_rejects_non_cycles(self):
        g = path_graph([1, 1, 1])
        x = {e: HALF for e in g.edges}
        with pytest.raises(ValueError):
            fractional_support_cycles(g, x)


class TestSharedConstants:
    SHARED = (covers.ZERO, covers.HALF, covers.ONE)

    def assert_shared(self, values):
        assert all(any(x is c for c in self.SHARED) for x in values.values()), values

    def test_cover_entries_are_the_module_constants(self):
        # Both branches: the direct LP on bipartite graphs and the averaged
        # copies of the bipartite double otherwise.
        rng = random.Random(61)
        graphs = [random_bipartite_graph(rng) for _ in range(15)]
        graphs += [random_nonbipartite_graph(rng, max_vertices=9, max_extra_edges=4) for _ in range(30)]
        averaged = 0
        for g in graphs:
            cover = half_integral_cover(g)
            self.assert_shared(cover.values)
            self.assert_shared(canonicalize_to_odd_cycles(g, cover.values))
            averaged += HALF in cover.values.values()
        assert averaged  # the doubled branch made some 1/2 entries

    @pytest.mark.parametrize(
        "g",
        [
            cycle_graph(4),
            cycle_graph(6),
            WeightedGraph(5, [(0, 1, 1), (0, 2, 1), (1, 2, 2), (0, 3, 1), (0, 4, 1), (3, 4, 2)]),
            WeightedGraph(4, [(0, 1, 1), (0, 2, 1), (1, 2, 0), (1, 3, 1), (2, 3, 1)]),
        ],
        ids=["C4", "C6", "flower", "shared-edge"],
    )
    def test_rounded_entries_are_the_module_constants(self, g):
        x = {e: covers.HALF for e in g.edges}  # optimal on each of these graphs
        canonical = canonicalize_to_odd_cycles(g, x)
        assert canonical != x  # the alternating shifts ran
        self.assert_shared(canonical)

    def test_validation_keeps_the_callers_fractions(self):
        g = triangle()
        values = {e: F(1, 2) for e in g.edges}
        validated = covers._validated_half_integral_cover(g, values)
        assert all(validated[e] is values[e] for e in g.edges)
        g = path_graph([1])
        assert covers._validated_half_integral_cover(g, {(0, 1): 1}) == {(0, 1): covers.ONE}

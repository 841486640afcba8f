"""Integral, bipartite, and half-integral covers plus the odd-cycle
canonicalization."""

import itertools
import random
import sys
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import pytest
from helpers import (
    complete_graph,
    cycle_graph,
    path_graph,
    random_bipartite_graph,
    random_graph,
    random_nonbipartite_graph,
    reference_canonicalize,
    star_graph,
    triangle,
    unchoosing_solve,
)

from covergame import (
    CapExceededError,
    WeightedGraph,
    allocate_alpha_core,
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
        message = "^28 candidate edges exceed the exact-solver cap of 24$"
        with pytest.raises(CapExceededError, match=message):
            min_edge_cover_exact(complete_graph(8))

    def test_zero_weight_edges(self):
        g = WeightedGraph(3, [(0, 1, F(0)), (1, 2, F(0)), (0, 2, F(5))])
        assert min_edge_cover_exact(g).weight == 0

    def test_weights_beyond_float_range(self):
        # The search budget stays a Fraction: a float one would overflow on
        # the first weight past 1.8e308.
        huge = F(10**400, 3)
        cert = min_edge_cover_exact(path_graph([huge, 1, huge]))
        assert cert.weight == 2 * huge
        assert cert.values[(1, 2)] == 0

    @staticmethod
    def search_nodes(g, members=None):
        """Calls of the nested ``search`` in one exact cover."""
        nodes = 0

        def count(frame, event, arg):
            nonlocal nodes
            code = frame.f_code
            if event == "call" and code.co_name == "search" and code.co_filename == covers.__file__:
                nodes += 1

        previous = sys.getprofile()
        sys.setprofile(count)
        try:
            min_edge_cover_exact(g, members)
        finally:
            sys.setprofile(previous)
        return nodes

    def test_search_visits_a_pinned_number_of_nodes(self):
        # The prune test's exact node counts: a weaker bound visits more
        # nodes, and a bound that is not a lower bound loses optima.
        unit = {"K6": complete_graph(6), "C9": cycle_graph(9), "K7": complete_graph(7)}
        assert {name: self.search_nodes(g) for name, g in unit.items()} == {
            "K6": 91,
            "C9": 51,
            "K7": 607,
        }
        seeded = {}
        for seed in (2, 5, 9):
            rng = random.Random(seed)
            g = random_graph(rng, min_vertices=12, max_vertices=14, max_extra_edges=8)
            members = rng.sample(range(g.vertex_count), g.vertex_count * 2 // 3)
            seeded[seed] = self.search_nodes(g, members)
        assert seeded == {2: 200, 5: 668, 9: 2093}


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

    @pytest.mark.parametrize("include_dual_witness", [False, True])
    def test_solution_corrupted_after_solving_is_caught(self, monkeypatch, include_dual_witness):
        # The bipartite branch checks the weight and feasibility of what
        # the LP returned, as the doubled branch does.
        monkeypatch.setattr(covers, "solve", unchoosing_solve(covers.solve))
        with pytest.raises(RuntimeError, match="weight disagrees"):
            half_integral_cover(cycle_graph(4), include_dual_witness=include_dual_witness)


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

    def test_cover_values_are_exact_numbers_only(self):
        g = path_graph([1, 1])
        assert canonicalize_to_odd_cycles(g, {e: 1 for e in g.edges}) == {e: 1 for e in g.edges}
        g = triangle()  # all halves is its optimum, so only the float is wrong
        with pytest.raises(TypeError, match="expected an int or a Fraction, not float"):
            canonicalize_to_odd_cycles(g, {e: 0.5 for e in g.edges})

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

    @pytest.mark.parametrize(
        "g, values, message",
        [
            (cycle_graph(4), {e: HALF for e in cycle_graph(4).edges}, "odd cycles"),
            # The lone fractional edge is no odd cycle, and 1/3 is not a half.
            (path_graph([1, 1, 1]), {(0, 1): F(1), (1, 2): F(1, 3), (2, 3): F(1)}, "half-integral"),
            (triangle(), {(0, 1): HALF, (0, 2): HALF}, "every edge"),
        ],
    )
    def test_support_cycle_reporting_rejects_bad_vectors(self, g, values, message):
        with pytest.raises(ValueError, match=message):
            fractional_support_cycles(g, values)


class TestReaders:
    READERS = {
        "cover_weight": cover_weight,
        "is_feasible_cover": is_feasible_cover,
        "is_half_integral": lambda g, values: is_half_integral(values),
    }

    @pytest.mark.parametrize("reader", READERS)
    @pytest.mark.parametrize("x", [0.5, "1/2", Decimal("0.5")], ids=["float", "str", "decimal"])
    def test_take_exact_numbers_only(self, reader, x):
        g = triangle()
        with pytest.raises(TypeError, match="expected an int or a Fraction"):
            self.READERS[reader](g, {e: x for e in g.edges})

    def test_take_ints_and_fractions(self):
        g = triangle()
        for x, weight, feasible, half in [(1, 3, True, True), (F(1, 2), F(3, 2), True, True),
                                          (F(1, 3), 1, False, False), (0, 0, False, True)]:
            values = {e: x for e in g.edges}
            assert cover_weight(g, values) == weight
            assert is_feasible_cover(g, values) is feasible
            assert is_half_integral(values) is half

    def test_a_missing_edge_reads_as_zero_and_a_foreign_key_is_named(self):
        g = triangle()
        assert is_feasible_cover(g, {}) is False
        assert is_feasible_cover(g, {(0, 1): 1, (1, 2): 1}) is True  # (0, 2) reads as 0
        assert cover_weight(g, {}) == 0 and cover_weight(g, {(0, 1): 1}) == 1
        for values in ({(0, 9): 1}, {(0, 1): 1, (0, 9): 0}):
            with pytest.raises(ValueError, match=r"cover key \(0, 9\) is not an edge"):
                cover_weight(g, values)


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

    @pytest.mark.parametrize(
        "g", [triangle(), cycle_graph(5), cycle_graph(4)], ids=["triangle", "C5", "bipartite-C4"]
    )
    def test_packing_entries_are_the_module_constants(self, g):
        # The dual witness and the allocation are both optimal packings.
        vectors = (half_integral_cover(g).dual_witness, allocate_alpha_core(g).allocation)
        entries = [y for vector in vectors for y in vector if y in self.SHARED]
        assert entries
        assert all(any(y is c for c in self.SHARED) for y in entries), vectors

    def test_validation_keeps_the_callers_fractions(self):
        g = triangle()
        values = {e: F(1, 2) for e in g.edges}
        validated = covers._validated_half_integral_cover(g, values)
        assert all(validated[e] is values[e] for e in g.edges)
        g = path_graph([1])
        assert covers._validated_half_integral_cover(g, {(0, 1): 1}) == {(0, 1): covers.ONE}


class TestRoundingReference:
    """The one-rule rounding against ``reference_canonicalize``, the
    two-shift rounding with a separate branch for simple cycles."""

    @staticmethod
    def random_cover(rng, g):
        """A random feasible half-integral vector, mostly halves."""
        x = {e: rng.choice((covers.ZERO, HALF, HALF, HALF, covers.ONE)) for e in g.edges}
        for v in g.vertices():
            while sum(x[covers.edge_key(u, v)] for u in g.neighbors(v)) < 1:
                e = covers.edge_key(rng.choice(g.neighbors(v)), v)
                x[e] = min(covers.ONE, x[e] + HALF)
        return x

    @staticmethod
    def flowers_and_cycles(rng):
        """Zero-weight unions of flowers and cycles, relabeled at random,
        with halves on every petal and cycle edge; some cycle vertices get
        a pendant edge of value one, which makes them slack."""
        edges, values, n = [], {}, 0

        def add(u, v, x):
            edges.append((u, v))
            values[(u, v)] = x

        for _ in range(rng.randint(1, 3)):
            center, n = n, n + 1
            petals = [rng.randint(3, 6) for _ in range(rng.choice((1, 1, 2, 3)))]
            for length in petals:
                ring = [center] + list(range(n, n + length - 1))
                n += length - 1
                for a, b in zip(ring, ring[1:] + ring[:1]):
                    add(a, b, HALF)
            if len(petals) == 1:
                for v in rng.sample(ring, rng.choice((0, 1, 2, 2, 3))):
                    add(v, n, covers.ONE)
                    n += 1
        label = list(range(n))
        rng.shuffle(label)
        g = WeightedGraph(n, [(label[u], label[v], 0) for u, v in edges])
        x = {covers.edge_key(label[u], label[v]): value for (u, v), value in values.items()}
        return g, x

    @staticmethod
    def describe(g, x):
        """The input of a failed case, for the assertion message."""
        weights = [(u, v, str(g.weight(u, v))) for u, v in g.edges]
        return f"graph {weights}, vector {[(e, str(x[e])) for e in g.edges]}"

    def test_matches_reference(self):
        rng = random.Random(67)
        corpus = []
        for _ in range(2000):
            g = random_graph(rng, max_vertices=6, max_extra_edges=3, min_numerator=0, max_numerator=0)
            corpus.append((g, self.random_cover(rng, g)))
        corpus += [self.flowers_and_cycles(rng) for _ in range(150)]
        for _ in range(200):
            g = random_nonbipartite_graph(rng, max_vertices=6)
            corpus.append((g, half_integral_cover(g, include_dual_witness=False).values))
        cases = Counter()
        for g, x in corpus:
            expected, cycles = reference_canonicalize(g, x, cases)
            canonical = canonicalize_to_odd_cycles(g, x)
            assert canonical == expected, self.describe(g, x)
            assert fractional_support_cycles(g, canonical) == cycles, self.describe(g, x)
        kinds = ("even cycle", "slack path", "even petal", "odd-petal pair")
        for kind in kinds + ("lowers even indices", "lowers odd indices"):
            assert cases[kind] >= 20, cases

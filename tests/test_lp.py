"""Exact simplex solver and the covering/packing LP builders."""

import copy
import io
import random
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import pytest
from helpers import (
    cycle_graph,
    dense_solve,
    disjoint_union,
    path_graph,
    random_bipartite_graph,
    random_graph,
    star_graph,
    triangle,
)

from covergame import (
    Constraint,
    LinearProgram,
    brute_fractional_optimum,
    check_core_dual,
    cover_weight,
    double_graph,
    dual_packing_lp,
    fractional_cover_lp,
    fractional_support_cycles,
    half_integral_cover,
    is_feasible_cover,
    is_half_integral,
    shortest_odd_cycle,
    solve,
)
from covergame import lp as lp_module

F = Fraction


def lp_min(objective, constraints):
    return LinearProgram(
        "min",
        tuple(F(c) for c in objective),
        tuple(Constraint(tuple(F(a) for a in row), rel, F(rhs)) for row, rel, rhs in constraints),
    )


def lp_max(objective, constraints):
    return LinearProgram(
        "max",
        tuple(F(c) for c in objective),
        tuple(Constraint(tuple(F(a) for a in row), rel, F(rhs)) for row, rel, rhs in constraints),
    )


class TestSolver:
    def test_min_single_variable(self):
        sol = solve(lp_min([1], [([1], ">=", 1)]))
        assert sol.status == "optimal"
        assert sol.values == (F(1),)
        assert sol.objective_value == 1

    def test_equality_constraint(self):
        # An equality is written as a ">=" and "<=" pair.
        sol = solve(lp_min([1, 1], [([1, 1], ">=", 2), ([1, 1], "<=", 2)]))
        assert sol.status == "optimal"
        assert sol.objective_value == 2

    def test_max_sense(self):
        sol = solve(lp_max([1], [([1], "<=", F(5, 2))]))
        assert sol.status == "optimal"
        assert sol.objective_value == F(5, 2)

    def test_infeasible(self):
        sol = solve(lp_min([1], [([1], "<=", -1)]))
        assert sol.status == "infeasible"
        assert sol.values is None and sol.objective_value is None

    def test_unbounded(self):
        sol = solve(lp_max([1], [([-1], "<=", 1)]))
        assert sol.status == "unbounded"

    def test_negative_rhs_normalization(self):
        # -x <= -1 is x >= 1
        sol = solve(lp_min([1], [([-1], "<=", -1)]))
        assert sol.objective_value == 1

    def test_redundant_rows_are_dropped(self):
        # Redundant rows stay in the tableau: each keeps its slack column,
        # so its artificial can always be pivoted out after phase 1.
        rows = [([1, 1], ">=", 2), ([1, 1], "<=", 2), ([2, 2], ">=", 4), ([2, 2], "<=", 4)]
        sol = solve(lp_min([1, 1], rows))
        assert sol.status == "optimal"
        assert sol.objective_value == 2
        assert len(sol.duals) == 4

    def test_fractional_data(self):
        sol = solve(lp_min([F(2, 3), F(1, 5)], [([1, 0], ">=", F(3, 7)), ([0, 1], ">=", F(1, 2))]))
        assert sol.objective_value == F(2, 3) * F(3, 7) + F(1, 5) * F(1, 2)

    def test_pivot_trace(self):
        trace = io.StringIO()
        solve(fractional_cover_lp(triangle()), trace=trace)
        text = trace.getvalue()
        assert "enters" in text and "optimal" in text

    def test_determinism(self):
        lp = fractional_cover_lp(cycle_graph(7))
        assert solve(lp) == solve(lp)


class TestCoverLp:
    def test_triangle_shape_and_value(self):
        lp = fractional_cover_lp(triangle())
        assert len(lp.objective) == 3 and len(lp.constraints) == 3
        sol = solve(lp)
        assert sol.objective_value == F(3, 2)
        # the all-tight system pins the unique optimum at one half per edge
        assert sol.values == (F(1, 2), F(1, 2), F(1, 2))

    def test_path_and_star_shapes(self):
        assert len(fractional_cover_lp(path_graph([1, 1])).objective) == 2
        assert len(fractional_cover_lp(path_graph([1, 1])).constraints) == 3
        assert len(fractional_cover_lp(star_graph(3)).objective) == 3
        assert len(fractional_cover_lp(star_graph(3)).constraints) == 4

    def test_single_edge_weight(self):
        sol = solve(fractional_cover_lp(path_graph([F(5, 2)])))
        assert sol.objective_value == F(5, 2)
        assert sol.values == (F(1),)

    def test_bipartite_basic_optimum_is_integral(self):
        rng = random.Random(23)
        for _ in range(30):
            g = random_bipartite_graph(rng)
            sol = solve(fractional_cover_lp(g))
            assert all(x == 0 or x == 1 for x in sol.values)


class TestPackingLp:
    def test_triangle_value(self):
        # summing the three edge constraints bounds 2*total by 3, and the
        # all-halves point attains it, so 3/2 is optimal and unique
        sol = solve(dual_packing_lp(triangle()))
        assert sol.objective_value == F(3, 2)
        assert sol.values == (F(1, 2), F(1, 2), F(1, 2))

    def test_single_edge(self):
        sol = solve(dual_packing_lp(path_graph([F(7, 3)])))
        assert sol.objective_value == F(7, 3)

    def test_star_value(self):
        g = star_graph(3)
        assert brute_fractional_optimum(g) == 3
        sol = solve(dual_packing_lp(g))
        assert sol.objective_value == 3

    def test_strong_duality_random(self):
        rng = random.Random(29)
        for _ in range(50):
            g = random_graph(rng, max_vertices=7)
            primal = solve(fractional_cover_lp(g))
            dual = solve(dual_packing_lp(g))
            assert primal.status == dual.status == "optimal"
            assert primal.objective_value == dual.objective_value

    def test_weak_duality_random_feasible_points(self):
        rng = random.Random(31)
        for _ in range(30):
            g = random_graph(rng)
            primal_value = solve(fractional_cover_lp(g)).objective_value
            dual_value = solve(dual_packing_lp(g)).objective_value
            # any y with y_v <= min incident weight / 2 is packing-feasible
            y = []
            for v in range(g.vertex_count):
                cap = min(g.weight(v, u) for u in g.neighbors(v)) / 2
                y.append(cap * Fraction(rng.randint(0, 4), 4))
            for u, v in g.edges:
                assert y[u] + y[v] <= g.weight(u, v)
            assert sum(y) <= primal_value
            # and any x >= 1 everywhere is cover-feasible
            x = [1 + Fraction(rng.randint(0, 3), 2) for _ in g.edges]
            feasible_primal = sum(g.weight(*e) * xe for e, xe in zip(g.edges, x))
            assert dual_value <= feasible_primal


class TestExactness:
    def test_solutions_satisfy_constraints_exactly(self):
        rng = random.Random(37)
        for _ in range(20):
            g = random_graph(rng)
            lp = fractional_cover_lp(g)
            sol = solve(lp)
            for con in lp.constraints:
                lhs = sum(a * x for a, x in zip(con.coeffs, sol.values))
                assert lhs >= con.rhs  # exact comparison, no epsilon
            assert sum(c * x for c, x in zip(lp.objective, sol.values)) == sol.objective_value

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LinearProgram("min", (F(1),), (Constraint((F(1), F(2)), ">=", F(1)),))

    def test_bad_sense_rejected(self):
        with pytest.raises(ValueError):
            LinearProgram("maximize", (F(1),), ())

    def test_bad_relation_rejected(self):
        with pytest.raises(ValueError):
            Constraint((F(1),), ">", F(1))

    def test_equality_relation_rejected(self):
        with pytest.raises(ValueError):
            Constraint((F(1),), "=", F(1))

    def test_coefficients_are_exact_numbers_only(self):
        assert solve(LinearProgram("min", (1,), (Constraint((2,), ">=", 1),))).values == (F(1, 2),)
        with pytest.raises(TypeError, match="expected an int or a Fraction, not float"):
            solve(LinearProgram("min", (F(1),), (Constraint((0.5,), ">=", F(1)),)))

    @pytest.mark.parametrize("x", [0.5, "1/2", Decimal("0.5")], ids=["float", "str", "decimal"])
    def test_records_take_exact_numbers_only(self, x):
        # The records refuse them when built, before any solve.
        with pytest.raises(TypeError, match="expected an int or a Fraction"):
            Constraint((x,), ">=", 1)
        with pytest.raises(TypeError, match="expected an int or a Fraction"):
            Constraint((1,), ">=", x)
        with pytest.raises(TypeError, match="expected an int or a Fraction"):
            LinearProgram("min", (x,), ())

    def test_replace_checks_and_coerces_like_the_constructor(self):
        con = Constraint((1, 2), ">=", 1)
        assert con._replace(rhs=3) == Constraint((1, 2), ">=", 3)
        assert type(con._replace(rhs=3).rhs) is F
        with pytest.raises(ValueError):
            con._replace(relation="=")
        program = LinearProgram("min", (1, 1), (con,))
        assert program._replace(sense="max").sense == "max"
        with pytest.raises(ValueError):
            program._replace(sense="maximize")
        with pytest.raises(ValueError):
            program._replace(objective=(1,))
        with pytest.raises(TypeError, match="expected an int or a Fraction"):
            program._replace(objective=(0.5, 1))

    def test_records_hold_fractions_and_keep_the_callers(self):
        third = F(1, 3)
        con = Constraint((2, third), "<=", 1)
        assert con.coeffs == (F(2), third) and con.coeffs[1] is third
        assert all(type(a) is F for a in (*con.coeffs, con.rhs))
        assert all(type(c) is F for c in LinearProgram("max", (1, F(1, 2)), (con,)).objective)
        lp = fractional_cover_lp(triangle())
        one, zero = lp_module.ONE, lp_module.ZERO
        assert all(a is one or a is zero for con in lp.constraints for a in con.coeffs)
        assert all(con.rhs is one for con in lp.constraints)


class TestDualCertificate:
    @pytest.mark.parametrize(
        "lp, duals",
        [
            # min x s.t. -x <= -1: the row is negated internally
            (lp_min([1], [([-1], "<=", -1)]), (F(-1),)),
            # max -x s.t. x >= 2
            (lp_max([-1], [([1], ">=", 2)]), (F(-1),)),
            # max x + y s.t. x <= 1, y <= 3, x + y <= 2
            (lp_max([1, 1], [([1, 0], "<=", 1), ([0, 1], "<=", 3), ([1, 1], "<=", 2)]), (0, 0, 1)),
        ],
    )
    def test_hand_solved_duals(self, lp, duals):
        sol = solve(lp)
        assert sol.duals == duals
        assert sum(con.rhs * y for con, y in zip(lp.constraints, sol.duals)) == sol.objective_value

    def test_no_duals_without_optimum(self):
        assert solve(lp_min([1], [([1], "<=", -1)])).duals is None
        assert solve(lp_max([1], [([-1], "<=", 1)])).duals is None

    def test_covering_duals_are_core_allocations(self):
        rng = random.Random(41)
        for _ in range(50):
            g = random_graph(rng, max_vertices=7)
            sol = solve(fractional_cover_lp(g))
            assert check_core_dual(g, sol.duals) == (True, None)
            assert sum(sol.duals) == sol.objective_value

    def test_packing_duals_are_fractional_covers(self):
        rng = random.Random(47)
        for _ in range(50):
            g = random_graph(rng, max_vertices=7)
            sol = solve(dual_packing_lp(g))
            x = dict(zip(g.edges, sol.duals))
            assert all(value >= 0 for value in x.values())
            assert is_feasible_cover(g, x)
            assert cover_weight(g, x) == sol.objective_value

    def test_packing_duals_are_a_canonical_optimal_half_integral_cover(self):
        # The structure the paper's LP-duality argument rests on, read from
        # the packing LP alone: no doubling, fold or rounding is involved.
        kinds, halves = Counter(), 0
        for kind, g in packing_dual_corpus():
            sol = solve(dual_packing_lp(g))
            x = dict(zip(g.edges, sol.duals))
            assert is_feasible_cover(g, x) and is_half_integral(x)
            assert cover_weight(g, x) == sol.objective_value
            assert sol.objective_value == half_integral_cover(g, include_dual_witness=False).weight
            fractional_support_cycles(g, x)  # raises unless the 1/2s lie on disjoint odd cycles
            if kind == "bipartite":
                assert set(x.values()) <= {0, 1}
            kinds[kind] += 1
            halves += F(1, 2) in x.values()
        assert sum(kinds.values()) >= 500 and kinds["bipartite"] >= 100 and halves >= 50

    @pytest.mark.parametrize(
        "lp, values, duals, objective, message",
        [
            # each certificate breaks exactly one condition, and the checker names it
            pytest.param(
                lp_min([1], [([1], ">=", 1)]), (0,), (0,), 0,
                "^solver returned an infeasible point: 0 >= 1$", id="infeasible-row",
            ),
            pytest.param(
                lp_max([1, 0], [([1, 1], "<=", 1)]), (2, -1), (2,), 2,
                "^solver returned a negative variable$", id="negative-x",
            ),
            pytest.param(
                lp_min([1], [([1], ">=", 1), ([1], "<=", 3)]), (1,), (0, F(1, 3)), 1,
                "^dual value of row 1 has the wrong sign$", id="dual-sign",
            ),
            pytest.param(
                lp_min([1, 2], [([1, 0], ">=", 1), ([0, 1], ">=", 0)]), (1, 0), (1, 5), 1,
                "^solver returned an infeasible dual$", id="dual-infeasible",
            ),
            pytest.param(
                lp_min([1], [([1], ">=", 1)]), (1,), (F(1, 2),), 1,
                "^solver objective does not match the returned primal and dual$", id="dual-total",
            ),
            pytest.param(
                lp_min([1], [([1], ">=", 1)]), (2,), (1,), 1,
                "^solver objective does not match the returned primal and dual$", id="primal-total",
            ),
        ],
    )
    def test_checker_rejects_each_broken_condition(self, lp, values, duals, objective, message):
        assert solve(lp).status == "optimal"  # its true optimum passes the same check
        values, duals = tuple(map(F, values)), tuple(map(F, duals))
        with pytest.raises(RuntimeError, match=message):
            lp_module._check_solution(lp, values, duals, F(objective))

    @pytest.mark.parametrize("fault", ["skewed-slack-cost", "flipped-duals", "skewed-objective"])
    def test_faulty_phase_2_is_caught(self, monkeypatch, fault):
        real_iterate = lp_module._iterate

        def faulty_iterate(tableau, basis, z, trace, phase):
            status = real_iterate(tableau, basis, z, trace, phase)
            if phase == 2:
                n = len(z) - 1 - len(tableau)  # slack columns n..n+m-1, then the objective
                if fault == "skewed-slack-cost":
                    z[n] += 1
                elif fault == "flipped-duals":
                    z[n:-1] = [-v for v in z[n:-1]]
                else:
                    z[-1] -= 1
            return status

        monkeypatch.setattr(lp_module, "_iterate", faulty_iterate)
        for g in (triangle(), cycle_graph(5), star_graph(3)):
            for lp in (fractional_cover_lp(g), dual_packing_lp(g)):
                with pytest.raises(RuntimeError):
                    solve(lp)


# Weight families of the graph LPs: small rationals, 6-digit denominators,
# and zeros with many ties.
WEIGHT_FAMILIES = (
    dict(max_numerator=20, max_denominator=5),
    dict(max_numerator=999_999, max_denominator=999_999),
    dict(max_numerator=3, max_denominator=2, min_numerator=0),
)


def graph_lps(rng, count):
    """The covering and packing LPs of random graphs of at most 10
    vertices, and the covering LP of the bipartite double of each
    non-bipartite one, labelled by family."""
    for k in range(count):
        g = random_graph(rng, max_vertices=10, max_extra_edges=5, **WEIGHT_FAMILIES[k % 3])
        yield "cover", fractional_cover_lp(g)
        yield "packing", dual_packing_lp(g)
        if shortest_odd_cycle(g).length is not None:
            yield "doubled-cover", fractional_cover_lp(double_graph(g))


def packing_dual_corpus():
    """Seeded (kind, graph) pairs: random graphs of the three weight
    families, bipartite ones, and unit-weight odd cycles planted alone, in
    disjoint unions, or beside a random graph, because random weights
    rarely leave a 1/2 in an optimal cover."""
    rng = random.Random(59)
    for k in range(210):
        yield "random", random_graph(rng, max_vertices=10, max_extra_edges=5, **WEIGHT_FAMILIES[k % 3])
    for k in range(150):
        yield "bipartite", random_bipartite_graph(rng, max_extra_edges=5, **WEIGHT_FAMILIES[k % 3])
    for k in range(150):
        parts = [cycle_graph(rng.choice((3, 5, 7, 9))) for _ in range(rng.randint(1, 3))]
        if k % 2:
            parts.append(random_graph(rng, max_vertices=8, **WEIGHT_FAMILIES[k % 3]))
        rng.shuffle(parts)
        yield "planted", disjoint_union(*parts)


def random_lp(rng):
    """A small LP with mixed sense, relations and signs, sparse rows and
    possibly negative right-hand sides; often infeasible or unbounded."""
    n, m = rng.randint(1, 6), rng.randint(1, 6)

    def coeff():
        return F(rng.choice((0, 0, 0, 1, -1, 2, -3)), rng.choice((1, 1, 2, 3)))

    def rhs():
        return F(rng.randint(-5, 8), rng.randint(1, 4))

    constraints = tuple(
        Constraint(tuple(coeff() for _ in range(n)), rng.choice((">=", "<=")), rhs()) for _ in range(m)
    )
    return LinearProgram(rng.choice(("min", "max")), tuple(coeff() for _ in range(n)), constraints)


def lp_corpus():
    rng = random.Random(53)
    yield from graph_lps(rng, 150)
    for _ in range(450):
        yield "random", random_lp(rng)


def solved_with_trace(solver, lp):
    trace = io.StringIO()
    return solver(lp, trace=trace), trace.getvalue()


class TestSparsePivot:
    def test_matches_dense_reference(self):
        # The sparse pivot changes only entries that the dense pivot would
        # change, by the same arithmetic, so every choice of Bland's rule
        # and every number is the same.
        families, statuses = Counter(), Counter()
        for index, (family, lp) in enumerate(lp_corpus()):
            sol, trace = solved_with_trace(solve, lp)
            ref, ref_trace = solved_with_trace(dense_solve, lp)
            assert (sol, trace) == (ref, ref_trace), f"LP {index} ({family}) differs"
            families[family] += 1
            statuses[sol.status] += 1
        assert sum(families.values()) >= 800 and min(families.values()) >= 100, families
        assert statuses["infeasible"] >= 20 and statuses["unbounded"] >= 20, statuses

    def test_leaves_its_program_unchanged(self):
        # Rows are updated in place, so the tableau must never share a list
        # with the program; two solves of one program must agree.
        rng = random.Random(59)
        lps = [lp for _, lp in graph_lps(rng, 12)] + [random_lp(rng) for _ in range(30)]
        for lp in lps:
            before = copy.deepcopy(lp)
            first = solved_with_trace(solve, lp)
            assert lp == before
            assert solved_with_trace(solve, lp) == first

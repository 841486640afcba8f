"""Coalition costs, core checkers, the dual allocation, integrality gaps,
and odd-set membership."""

import json
import random
import time
from collections import Counter
from fractions import Fraction

import pytest
from helpers import (
    LINE_SEPARATORS,
    NEWLINES,
    complete_graph,
    cycle_graph,
    disjoint_union,
    fraction_check_core_dual,
    fraction_check_core_stars,
    induced_min_cover,
    path_graph,
    random_allocation,
    random_graph,
    random_nonbipartite_graph,
    triangle,
)

from covergame import (
    CapExceededError,
    GapReport,
    WeightedGraph,
    allocate_alpha_core,
    brute_core_check,
    check_core_dual,
    check_core_stars,
    coalition_cost,
    dual_packing_lp,
    exact_best_ratio,
    half_integral_cover,
    integrality_gap,
    parse_allocation,
    solve,
    verify_scaled_cover_membership,
)
from covergame.cli import main
from covergame.game import ODD_SET_CAP

F = Fraction
HALF = F(1, 2)


def _checker_corpus(seed: int, graphs: int):
    """(graph, allocation) pairs for the integer core checkers.

    Even graphs carry 6-digit denominators, odd ones small int weights, so
    margins often tie; both get some zero weights. Per graph: a greedy
    maximal packing (a core allocation with tight edges, whose integral
    entries are passed as ints), the same with one edge violated, the
    same with one star of two or more positive-margin members, and an
    allocation below every incident weight (no positive margin).
    """
    rng = random.Random(seed)
    for i in range(graphs):
        shape = random_graph(rng, max_vertices=9, max_extra_edges=5)
        big = i % 2 == 0

        def weight():
            if rng.random() < 0.1:
                return 0
            if big:
                q = rng.randint(100_000, 999_999)
                return F(rng.randint(1, 9 * q), q)
            return rng.randint(1, 3)

        g = WeightedGraph(shape.vertex_count, [(u, v, weight()) for u, v in shape.edges])
        n = g.vertex_count
        eps = F(1, rng.randint(100_000, 999_999)) if big else HALF

        core = [F(0)] * n
        for v in rng.sample(range(n), n):
            core[v] = min(g.weight(u, v) - core[u] for u in g.neighbors(v))
        yield g, [int(a) if a.denominator == 1 else a for a in core]

        u, v = rng.choice(g.edges)
        edge = list(core)
        edge[u] = g.weight(u, v) - core[v] + eps
        yield g, edge

        centers = [v for v in range(n) if len(g.neighbors(v)) >= 2]
        if centers:
            v = rng.choice(centers)
            star = list(core)
            for u in rng.sample(g.neighbors(v), rng.randint(2, len(g.neighbors(v)))):
                star[u] = g.weight(u, v) + eps
            yield g, star

        below = []
        for v in range(n):
            cap = min(g.weight(u, v) for u in g.neighbors(v))
            below.append(max(F(0), cap - rng.choice((0, 0, HALF, 1)) * (eps if big else 1)))
        yield g, below


class TestCoalitionCost:
    def test_triangle_costs(self):
        from covergame import brute_min_cover

        g = triangle()
        assert coalition_cost(g, {0}) == 1
        assert coalition_cost(g, {0, 1, 2}) == 2
        assert brute_min_cover(g, {0, 1}) == 1  # exhaustive over the 8 subsets
        assert coalition_cost(g, {0, 1}) == 1

    def test_single_vertex_takes_cheapest_incident_edge(self):
        g = path_graph([F(5), F(2)])
        assert coalition_cost(g, {1}) == 2

    def test_cap_error(self):
        message = "^28 candidate edges exceed the exact-solver cap of 24$"
        with pytest.raises(CapExceededError, match=message):
            coalition_cost(complete_graph(8), range(8))

    def test_core_and_grand_cost_match_the_induced_definition(self):
        # c(S) here may also use the edges crossing S's boundary; the paper
        # covers G[S] with E[S] alone, and S without such a cover sets no
        # bound. For nonnegative allocations both cores are the allocations
        # with a_u + a_v <= w_uv on every edge, and c(V) agrees because no
        # edge leaves V.
        rng = random.Random(71)
        verdicts = Counter()
        for _ in range(150):
            g = random_graph(rng, max_vertices=6)
            n = g.vertex_count
            induced = {
                mask: induced_min_cover(g, [v for v in range(n) if mask >> v & 1])
                for mask in range(1, 1 << n)
            }
            assert induced[(1 << n) - 1] == coalition_cost(g, range(n))
            dual = solve(dual_packing_lp(g)).values
            for a in [dual] + [random_allocation(rng, g, dual) for _ in range(3)]:
                in_core = all(
                    cost is None or sum(a[v] for v in range(n) if mask >> v & 1) <= cost
                    for mask, cost in induced.items()
                )
                assert brute_core_check(g, a)[0] == check_core_dual(g, a)[0] == in_core, (g.edges, a)
                verdicts[in_core] += 1
        assert verdicts[True] >= 100 and verdicts[False] >= 100, verdicts


class TestCheckers:
    def test_triangle_halves_pass_both(self):
        g = triangle()
        a = (HALF, HALF, HALF)
        assert check_core_stars(g, a) == (True, None)
        assert check_core_dual(g, a) == (True, None)

    def test_star_violation_with_witness(self):
        g = triangle()
        ok, witness = check_core_stars(g, (F(1), F(1), F(0)))
        assert not ok
        assert witness == (0, frozenset({1}))

    def test_allocation_takes_exact_numbers_only(self):
        g = triangle()
        assert check_core_dual(g, (1, 0, 0)) == (True, None)
        with pytest.raises(TypeError, match="expected an int or a Fraction, not float"):
            check_core_dual(g, (HALF, HALF, 0.5))

    def test_integer_checkers_match_fraction_reference(self):
        tight = multi_member = tied = 0
        for g, a in _checker_corpus(seed=409, graphs=320):
            dual = check_core_dual(g, a)
            stars = check_core_stars(g, a)
            assert dual == fraction_check_core_dual(g, a), (g.edges, a)
            assert stars == fraction_check_core_stars(g, a), (g.edges, a)
            if dual[0]:
                tight += any(a[u] + a[v] == g.weight(u, v) for u, v in g.edges)
            if not stars[0]:
                v, members = stars[1]
                multi_member += len(members) >= 2
                margins = [a[u] - g.weight(u, v) for u in g.neighbors(v)]
                tied += max(margins) <= 0 and margins.count(max(margins)) >= 2
        # The corpus reaches each branch where a strict comparison or the
        # lowest-id tie rule decides the result.
        assert tight >= 100 and multi_member >= 50 and tied >= 20, (tight, multi_member, tied)

    def test_zero_allocation_passes(self):
        g = triangle()
        zero = (F(0),) * 3
        assert check_core_stars(g, zero)[0]
        assert check_core_dual(g, zero)[0]

    def test_dual_check_vertex_concentration_passes_on_triangle(self):
        # a = (1, 0, 0) satisfies every edge constraint of the unit triangle
        assert check_core_dual(triangle(), (F(1), F(0), F(0))) == (True, None)
        assert check_core_stars(triangle(), (F(1), F(0), F(0)))[0]

    def test_dual_check_single_edge_violation(self):
        g = path_graph([F(2)])
        ok, witness = check_core_dual(g, (F(3, 2), F(1)))
        assert not ok and witness == (0, 1)

    def test_negative_allocation_rejected(self):
        with pytest.raises(ValueError):
            check_core_dual(triangle(), (F(-1), F(0), F(0)))
        with pytest.raises(ValueError):
            check_core_stars(triangle(), (F(-1), F(0), F(0)))

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            check_core_dual(triangle(), (F(0), F(0)))

    def test_equivalence_on_random_allocations(self):
        rng = random.Random(67)
        for _ in range(60):
            g = random_graph(rng, max_vertices=6, max_extra_edges=2)
            dual = solve(dual_packing_lp(g)).values
            a = random_allocation(rng, g, dual)
            stars = check_core_stars(g, a)[0]
            duals = check_core_dual(g, a)[0]
            oracle = brute_core_check(g, a)[0]
            assert stars == duals == oracle


class TestAllocation:
    def test_triangle_report(self):
        report = allocate_alpha_core(triangle())
        assert report.allocation == (HALF, HALF, HALF)
        assert report.alpha == F(3, 4)
        assert report.total == F(3, 2)
        assert report.grand_cost == 2
        assert report.ratio == F(3, 4)

    def test_five_cycle_report(self):
        report = allocate_alpha_core(cycle_graph(5))
        assert report.allocation == (HALF,) * 5
        assert report.total == F(5, 2)
        assert report.grand_cost == 3
        assert report.ratio == F(5, 6)
        assert report.alpha == F(5, 6)

    def test_single_edge_report(self):
        report = allocate_alpha_core(path_graph([F(7, 3)]))
        assert report.total == F(7, 3)
        assert report.grand_cost == F(7, 3)
        assert report.ratio == 1
        assert report.alpha == 1

    def test_past_the_cap_reports_grand_cost_and_ratio(self):
        # 28 edges, over the exact search's cap of 24; the matching has none.
        report = allocate_alpha_core(complete_graph(8))
        assert (report.total, report.grand_cost, report.ratio) == (4, 4, 1)
        assert exact_best_ratio(complete_graph(8)) == 1

    def test_zero_grand_cost_leaves_ratio_unavailable(self):
        report = allocate_alpha_core(triangle(F(0)))
        assert report.grand_cost == 0 and report.ratio is None

    def test_output_passes_all_checkers(self):
        rng = random.Random(71)
        for _ in range(25):
            g = random_graph(rng, max_vertices=7, max_extra_edges=2)
            report = allocate_alpha_core(g)
            assert check_core_dual(g, report.allocation)[0]
            assert check_core_stars(g, report.allocation)[0]
            assert brute_core_check(g, report.allocation)[0]
            assert report.total >= report.alpha * report.grand_cost

    def test_scaling_invariance(self):
        rng = random.Random(73)
        factor = F(3, 7)
        for _ in range(10):
            g = random_graph(rng, max_vertices=6, max_extra_edges=2)
            scaled = WeightedGraph(
                g.vertex_count, [(u, v, factor * g.weight(u, v)) for u, v in g.edges]
            )
            base = allocate_alpha_core(g)
            other = allocate_alpha_core(scaled)
            assert other.total == factor * base.total
            assert other.grand_cost == factor * base.grand_cost
            assert other.allocation == tuple(factor * a for a in base.allocation)
            assert other.ratio == base.ratio
            assert exact_best_ratio(scaled) == exact_best_ratio(g)


class TestGap:
    def test_triangle_containing_graph(self):
        # 5-cycle with a chord creating a triangle
        g = WeightedGraph(
            5,
            [(0, 1, F(1)), (1, 2, F(1)), (2, 3, F(1)),
             (3, 4, F(1)), (0, 4, F(1)), (0, 2, F(1))],
        )
        report = integrality_gap(g)
        assert report.ell == 3 and report.rho == F(4, 3)

    @staticmethod
    def gap_json(tmp_path, capsys, g):
        path = tmp_path / "g.g"
        path.write_text(f"{g.vertex_count} {g.edge_count}\n"
                        + "".join(f"{u} {v} {g.weight(u, v)}\n" for u, v in g.edges))
        assert main(["gap", str(path), "--format", "json"]) == 0
        return json.loads(capsys.readouterr().out)

    def test_bipartite(self, tmp_path, capsys):
        g = cycle_graph(6)
        report = integrality_gap(g)
        assert report == (None, 1, None)
        payload = self.gap_json(tmp_path, capsys, g)
        assert payload["cycle"] is None and payload["witness_weights"] is None

    def test_five_cycle(self, tmp_path, capsys):
        # The 4-cycle's edges are off the odd cycle, so they carry no weight.
        g = disjoint_union(cycle_graph(4), cycle_graph(5))
        report = integrality_gap(g)
        assert report.ell == 5 and report.rho == F(6, 5)
        assert report.cycle == (4, 5, 6, 7, 8, 4)
        payload = self.gap_json(tmp_path, capsys, g)
        assert payload["cycle"] == list(report.cycle)
        assert payload["witness_weights"] == [
            {"edge": list(e), "value": "1"} for e in [(4, 5), (4, 8), (5, 6), (6, 7), (7, 8)]
        ]

    def test_gap_is_attained_on_the_induced_cycle(self):
        # On G itself zero-weight edges off the cycle can cover it for free;
        # the subgraph the cycle induces, with unit weights, attains the gap.
        rng = random.Random(5)
        for _ in range(60):
            g = random_nonbipartite_graph(rng, max_vertices=12, max_extra_edges=2)
            report = integrality_gap(g)
            ell, label = report.ell, {v: i for i, v in enumerate(report.cycle[:-1])}
            assert len(label) == ell and report.cycle[0] == report.cycle[-1]
            induced = [(label[u], label[v], 1) for u, v in g.edges if u in label and v in label]
            assert len(induced) == ell
            h = WeightedGraph(ell, induced)
            assert exact_best_ratio(h) == F(ell, ell + 1)
            assert allocate_alpha_core(h).ratio == F(ell, ell + 1)


class TestScaledMembership:
    def test_triangle_scaled_passes(self):
        g = triangle()
        xt = {e: HALF for e in g.edges}
        assert verify_scaled_cover_membership(g, xt) == (True, None)

    def test_triangle_unscaled_fails_at_grand_set(self, monkeypatch):
        # Scaled by 1 + 1/ell, every feasible half-integral cover passes, so
        # only a gap of rho = 1 reaches the violation branch.
        no_gap = GapReport(None, F(1), None)
        monkeypatch.setattr("covergame.game.integrality_gap", lambda g: no_gap)
        g = triangle()
        xt = {e: HALF for e in g.edges}
        ok, witness = verify_scaled_cover_membership(g, xt)
        assert not ok and witness == frozenset({0, 1, 2})

    def test_bipartite_integral_scale_one(self):
        g = cycle_graph(6)
        cert = half_integral_cover(g, include_dual_witness=False)
        assert verify_scaled_cover_membership(g, cert.values) == (True, None)

    def test_cap(self):
        g = cycle_graph(ODD_SET_CAP + 1)
        message = "^15 vertices exceed the odd-set enumeration cap of 14$"
        with pytest.raises(CapExceededError, match=message):
            verify_scaled_cover_membership(g, {e: HALF for e in g.edges})

    def test_infeasible_vector_rejected(self):
        g = path_graph([1, 1])
        with pytest.raises(ValueError):
            verify_scaled_cover_membership(g, {e: HALF for e in g.edges})

    def test_every_feasible_half_integral_cover_passes(self):
        # Scaled by 1 + 1/ell, no feasible half-integral cover misses an
        # odd-set row, whether or not its halves form disjoint odd cycles.
        # Every fifth graph starts with an odd k-cycle of halves, whose
        # vertex set is tight: total k/2, so it passes only once scaled.
        from covergame import fractional_support_cycles

        rng = random.Random(3)
        non_canonical = 0
        for i in range(500):
            g = random_graph(rng, max_vertices=9, min_vertices=3, max_extra_edges=6)
            x = {e: rng.choice((F(0), HALF, HALF, HALF, F(1))) for e in g.edges}
            if i % 5 == 0:
                k = rng.choice((3, 5, 7))
                g = disjoint_union(cycle_graph(k), random_graph(rng, max_vertices=9 - k))
                x = {e: HALF if e[1] < k else rng.choice((F(0), HALF, F(1))) for e in g.edges}
            for v in g.vertices():
                while sum(x[tuple(sorted((u, v)))] for u in g.neighbors(v)) < 1:
                    e = tuple(sorted((rng.choice(g.neighbors(v)), v)))
                    x[e] = min(F(1), x[e] + HALF)
            try:
                fractional_support_cycles(g, x)
            except ValueError:
                non_canonical += 1
            assert verify_scaled_cover_membership(g, x) == (True, None), (g, x)
        assert non_canonical >= 250

    def test_random_corpus_up_to_ten_vertices(self):
        from covergame import canonicalize_to_odd_cycles

        rng = random.Random(109)
        for _ in range(20):
            g = random_graph(rng, max_vertices=10, max_extra_edges=3)
            cert = half_integral_cover(g, include_dual_witness=False)
            canonical = canonicalize_to_odd_cycles(g, cert.values)
            assert verify_scaled_cover_membership(g, canonical) == (True, None)


class TestBestRatio:
    def test_examples(self):
        assert exact_best_ratio(triangle()) == F(3, 4)
        assert exact_best_ratio(cycle_graph(5)) == F(5, 6)
        assert exact_best_ratio(path_graph([F(3), F(4)])) == 1

    def test_zero_grand_cost_is_rejected(self):
        with pytest.raises(ValueError, match="grand coalition cost is zero"):
            exact_best_ratio(path_graph([F(0), F(0)]))

    def test_never_below_guarantee(self):
        rng = random.Random(79)
        for _ in range(20):
            g = random_nonbipartite_graph(rng, max_vertices=7, max_extra_edges=2)
            ell = integrality_gap(g).ell
            ratio = exact_best_ratio(g)
            assert ratio >= F(ell, ell + 1) >= F(3, 4)

    @pytest.mark.parametrize("ell", range(3, 24, 2))
    @pytest.mark.parametrize("weight", [1, F(918_273, 654_321)], ids=["unit", "six-digit"])
    def test_odd_cycles_attain_their_guarantee(self, ell, weight):
        # Scaling every weight by one rational keeps the ratio; the longer
        # cycles of TestRatioAtScale run past the exact search's cap.
        g = cycle_graph(ell, weight)
        report = allocate_alpha_core(g)
        assert exact_best_ratio(g) == report.ratio == report.alpha == F(ell, ell + 1)


class TestRatioAtScale:
    """The paper's ell/(ell+1) guarantee on graphs of hundreds of vertices,
    and its tightness on the unit chordless cycle that ``gap`` returns."""

    @pytest.mark.parametrize(
        "n, weights", [(200, "unit"), (250, "fractions"), (300, "unit")], ids=str
    )
    def test_guarantee_holds_and_the_gap_cycle_attains_it(self, n, weights):
        rng = random.Random(n)
        kinds = {"unit": {"max_numerator": 1, "max_denominator": 1},
                 "fractions": {"max_numerator": 9, "max_denominator": 4}}
        g = random_graph(rng, min_vertices=n, max_vertices=n, max_extra_edges=n // 4, **kinds[weights])
        gap = integrality_gap(g)
        bound = Fraction(gap.ell, gap.ell + 1)
        start = time.perf_counter()
        ratio = exact_best_ratio(g)
        assert time.perf_counter() - start < 5
        assert ratio >= bound
        report = allocate_alpha_core(g)
        assert (report.alpha, report.ratio) == (bound, ratio)
        assert check_core_dual(g, report.allocation)[0]
        label = {v: i for i, v in enumerate(gap.cycle[:-1])}
        chords = [(label[u], label[v], 1) for u, v in g.edges if u in label and v in label]
        assert len(chords) == gap.ell  # the cycle's own edges: it is chordless
        assert exact_best_ratio(WeightedGraph(gap.ell, chords)) == bound

    def test_disjoint_odd_cycles_give_their_pooled_ratio(self):
        # Unit C_k has fractional optimum k/2 and grand cost (k+1)/2.
        rng = random.Random(3)
        lengths = [rng.randrange(3, 40, 2) for _ in range(16)]
        g = disjoint_union(*map(cycle_graph, lengths))
        ratio = Fraction(sum(lengths), sum(k + 1 for k in lengths))
        assert g.vertex_count >= 200
        assert exact_best_ratio(g) == allocate_alpha_core(g).ratio == ratio


class TestAllocationFiles:
    def test_round_trip(self):
        text = "# sample\n0 1/2\n2 0\n1 5/4\n"
        assert parse_allocation(text, 3) == (HALF, F(5, 4), F(0))

    def test_leading_byte_order_mark(self):
        assert parse_allocation("\ufeff0 1/2\n2 0\n1 5/4\n", 3) == (HALF, F(5, 4), F(0))
        assert parse_allocation("\ufeff# c\n0 1/2\n2 0\n1 5/4\n", 3) == (HALF, F(5, 4), F(0))

    @pytest.mark.parametrize("sep", LINE_SEPARATORS.values(), ids=LINE_SEPARATORS.keys())
    def test_other_line_breaks_stay_in_their_line(self, sep):
        # A comment holding one stays whole; between tokens it is whitespace.
        for nl in NEWLINES:
            text = f"# shares{sep}from LP{nl}0 1/2{nl}1{sep}1/2{nl}2 1/2{nl}"
            assert parse_allocation(text, 3) == (HALF, HALF, HALF)
            with pytest.raises(ValueError, match="^line 3: bad rational 'x'$"):
                parse_allocation(f"# shares{sep}from LP{nl}0 1/2{nl}1 x{nl}2 1/2{nl}", 3)

    def test_byte_order_mark_elsewhere_is_malformed(self):
        with pytest.raises(ValueError) as err:
            parse_allocation("0 1/2\n\ufeff2 0\n1 5/4\n", 3)
        assert str(err.value) == "line 2: bad vertex id '\\ufeff2'"
        with pytest.raises(ValueError, match="line 1: bad vertex id"):
            parse_allocation("\ufeff\ufeff0 1/2\n2 0\n1 5/4\n", 3)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("0 1/2\n1 1/2\n", "missing allocation"),
            ("0 1/2\n0 1/2\n1 0\n", "twice"),
            ("0 -1\n1 0\n2 0\n", "negative"),
            ("0 0.5\n1 0\n2 0\n", "bad rational"),
            ("5 1\n", "out of range"),
            ("zero 1\n", "bad vertex"),
            ("0 1 2\n", "expected"),
            # Vertex ids and values take ASCII digits only.
            ("0_1 1\n1 0\n2 0\n", "bad vertex"),
            ("+0 1\n1 0\n2 0\n", "bad vertex"),
            pytest.param("\u0660 1\n1 0\n2 0\n", "bad vertex", id="arabic-indic-vertex"),
            pytest.param("0 \u0663/\u0664\n1 0\n2 0\n", "bad rational", id="arabic-indic-value"),
            ("0 1_0\n1 0\n2 0\n", "bad rational"),
        ],
    )
    def test_errors(self, text, message):
        with pytest.raises(ValueError, match=message):
            parse_allocation(text, 3)

    @pytest.mark.parametrize("n", [3.0, F(3), "3"], ids=["float", "fraction", "str"])
    def test_vertex_count_is_an_integer(self, n):
        # The count is read before the first line, so a bad line never hides it.
        for text in ("0 1/2\n1 5/4\n2 0\n", "zero 1\n"):
            with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
                parse_allocation(text, n)

    def test_bool_vertex_count_is_its_int(self):
        assert parse_allocation("0 5/4\n", True) == (F(5, 4),)
        with pytest.raises(ValueError, match="^line 1: vertex 0 is out of range$"):
            parse_allocation("0 5/4\n", False)

"""Graph parsing, coalition validation, the bipartiteness test, shortest
odd cycles, and the doubling construction."""

import copy
import itertools
import math
import pickle
import random
import sys
import threading
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import pytest
from helpers import (
    LINE_SEPARATORS,
    NEWLINES,
    cycle_edges,
    cycle_graph,
    disjoint_union,
    double_cover_odd_cycle,
    grid_edges,
    parity_distances,
    path_graph,
    random_bipartite_graph,
    random_graph,
    random_nonbipartite_graph,
    triangle,
)

from covergame import (
    CapExceededError,
    GraphFormatError,
    WeightedGraph,
    coalition,
    coalition_cost,
    covers,
    double_graph,
    dual_packing_lp,
    edge_key,
    fractional_cover_lp,
    graphs,
    half_integral_cover,
    min_edge_cover_exact,
    parse_graph,
    parse_rational,
    shortest_odd_cycle,
)
from covergame.rationals import HALF, ONE, ZERO

TRIANGLE_TEXT = "3 3\n0 1 1\n1 2 1\n0 2 1\n"


def adjacency_built(g: WeightedGraph) -> bool:
    """Whether g's neighbor tuples exist, read from the slot itself so that
    asking does not build them."""
    try:
        WeightedGraph._neighbors.__get__(g)
    except AttributeError:
        return False
    return True


def is_walk(g: WeightedGraph, walk) -> bool:
    """Whether consecutive vertices of walk are joined by edges of g."""
    edges = set(g.edges)
    return all(edge_key(a, b) in edges for a, b in zip(walk, walk[1:]))


def enumerate_shortest_odd_cycle(g):
    """Exhaustive oracle: smallest odd k admitting a simple k-cycle."""
    n = g.vertex_count
    for k in range(3, n + 1, 2):
        for combo in itertools.combinations(range(n), k):
            for perm in itertools.permutations(combo[1:]):
                if perm[0] > perm[-1]:
                    continue  # skip reflections
                cycle = (combo[0],) + perm
                if is_walk(g, cycle + cycle[:1]):
                    return k
    return None


def test_edge_key_puts_the_smaller_endpoint_first():
    assert edge_key(3, 1) == edge_key(1, 3) == (1, 3)


class TestParsing:
    def test_triangle(self):
        g = parse_graph(TRIANGLE_TEXT)
        assert g.vertex_count == 3
        assert g.edges == ((0, 1), (0, 2), (1, 2))
        assert all(g.weight(*e) == 1 for e in g.edges)

    def test_fraction_weight(self):
        g = parse_graph("2 1\n0 1 5/2\n")
        assert g.weight(0, 1) == Fraction(5, 2)

    def test_bytes_comments_and_blanks(self):
        text = "# a triangle\n\n3 3\n0 1 1\n# middle comment\n1 2 1\n0 2 1\n\n"
        assert parse_graph(text).edge_count == 3
        with pytest.raises(TypeError):  # text only: decode bytes first
            parse_graph(text.encode("utf-8"))

    def test_leading_byte_order_mark(self):
        expected = parse_graph(TRIANGLE_TEXT)
        for source in ("\ufeff" + TRIANGLE_TEXT, "\ufeff# c\n" + TRIANGLE_TEXT):
            g = parse_graph(source)
            assert g.edges == expected.edges
            assert all(g.weight(*e) == 1 for e in g.edges)

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("\ufeff\ufeff" + TRIANGLE_TEXT, "bad-header: expected integers 'n m' (line 1)"),
            ("3 3\n\ufeff0 1 1\n1 2 1\n0 2 1\n",
             "malformed: vertex ids must be integers (line 2)"),
            ("3 3\n0 1 1\n1 2 1\n0 2 1\ufeff\n", "malformed: bad weight '1\\ufeff' (line 4)"),
        ],
        ids=["second-mark", "start-of-line", "end-of-line"],
    )
    def test_byte_order_mark_elsewhere_is_malformed(self, text, expected):
        with pytest.raises(GraphFormatError) as err:
            parse_graph(text)
        assert str(err.value) == expected

    @pytest.mark.parametrize(
        "source, kind",
        [
            ("2 0\n", "isolated-vertex"),
            ("2 1\n0 0 1\n", "loop"),
            ("2 2\n0 1 1\n0 1 2\n", "duplicate-edge"),
            ("2 1\n0 1 -3\n", "negative-weight"),
            ("2 1\n0 1 x\n", "malformed"),
            ("2 1\n0 1 1.5\n", "malformed"),
            ("2 1\n0 1 1/0\n", "malformed"),
            ("2 1\n1 0 1\n", "malformed"),
            ("2 1\n0 1\n", "malformed"),
            ("2 2\n0 1 1\n", "malformed"),
            ("3 1\n0 5 1\n", "vertex-range"),
            ("x y\n", "bad-header"),
            ("", "bad-header"),
            # Integer and rational tokens take ASCII digits only.
            ("0_2 1\n0 1 1\n", "bad-header"),
            ("+2 1\n0 1 1\n", "bad-header"),
            pytest.param("\u0662 1\n0 1 1\n", "bad-header", id="arabic-indic-header"),
            ("2 1\n0_0 1 1\n", "malformed"),
            ("2 1\n0 +1 1\n", "malformed"),
            pytest.param("2 1\n0 \u0661 1\n", "malformed", id="arabic-indic-id"),
            pytest.param("2 1\n0 1 \u0663/\u0664\n", "malformed", id="arabic-indic-weight"),
            ("2 1\n0 1 1_0\n", "malformed"),
            # The constructor is the only graph checker: the same violations
            # raised without a parser, and so without a line number.
            pytest.param((2, []), "isolated-vertex", id="constructor-isolated-vertex"),
            pytest.param((2, [(0, 0, 1)]), "loop", id="constructor-loop"),
            pytest.param(
                (2, [(0, 1, 1), (0, 1, 2)]), "duplicate-edge", id="constructor-duplicate-edge"
            ),
            pytest.param((2, [(0, 1, -3)]), "negative-weight", id="constructor-negative-weight"),
            pytest.param((3, [(0, 5, 1)]), "vertex-range", id="constructor-vertex-range"),
            pytest.param((0, []), "bad-header", id="constructor-no-vertices"),
        ],
    )
    def test_error_kinds(self, source, kind):
        with pytest.raises(GraphFormatError) as err:
            if isinstance(source, str):
                parse_graph(source)
            else:
                n, edges = source
                WeightedGraph(n, [(u, v, Fraction(w)) for u, v, w in edges])
        assert err.value.kind == kind
        if isinstance(source, str):
            assert err.value.line_no is not None or kind == "bad-header"
        else:
            assert err.value.line_no is None

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("4 1\n0 1 1\n", "isolated-vertex: vertex 2 has no incident edge (line 1)"),
            ("3 2\n0 1 1\n# x\n\n0 1 5\n", "duplicate-edge: edge 0-1 appears twice (line 5)"),
            ("3 2\n0 1 1\n1 2 -1/2\n", "negative-weight: edge 1-2 has weight -1/2 (line 3)"),
            ("3 1\n0 5 1\n", "vertex-range: edge (0, 5) is out of range (line 2)"),
            ("3 1\n-1 0 1\n", "vertex-range: edge (-1, 0) is out of range (line 2)"),
            ("2 1\n1 0 1\n", "malformed: edges must be written with u < v (line 2)"),
            ("2 1\n0 1 x\n", "malformed: bad weight 'x' (line 2)"),
            ("2 1\n0 a 1\n", "malformed: vertex ids must be integers (line 2)"),
            ("2 2\n0 1 1\n", "malformed: expected 2 edge lines, found 1 (line 1)"),
            ("0 0\n", "bad-header: invalid sizes n=0, m=0 (line 1)"),
            ("2\n0 1 1\n", "bad-header: expected 'n m' (line 1)"),
            ("2 1 1\n0 1 1\n", "bad-header: expected 'n m' (line 1)"),
        ],
    )
    def test_error_messages_and_lines(self, text, expected):
        with pytest.raises(GraphFormatError) as err:
            parse_graph(text)
        assert str(err.value) == expected

    @pytest.mark.parametrize("token", ["3\n", "\u0663/\u0664", "+3", "3_0", " 3", "3/ 4", "3/+4"])
    def test_rational_tokens_are_ascii_digits_only(self, token):
        with pytest.raises(ValueError):
            parse_rational(token)

    def test_huge_header_rejected_before_allocating_n(self):
        # Minimum degree one forces n <= 2m, so a 10^7-vertex header with one
        # edge must fail in memory that grows with m, not with n.
        tracemalloc.start()
        try:
            with pytest.raises(GraphFormatError) as err:
                parse_graph("10000000 1\n0 1 1\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(err.value) == "isolated-vertex: vertex 2 has no incident edge (line 1)"
        assert peak < 1_000_000

    def test_error_line_numbers(self):
        with pytest.raises(GraphFormatError) as err:
            parse_graph("# header comment\n3 3\n0 1 1\n1 1 1\n0 2 1\n")
        assert err.value.kind == "loop"
        assert err.value.line_no == 4

    def test_constructor_rejects_parallel_edges(self):
        with pytest.raises(GraphFormatError) as err:
            WeightedGraph(2, [(0, 1, Fraction(1)), (1, 0, Fraction(2))])
        assert err.value.kind == "duplicate-edge"

    @pytest.mark.parametrize("weight", [0.1, "1/2", Decimal("0.5")], ids=["float", "str", "decimal"])
    def test_constructor_takes_exact_weights_only(self, weight):
        with pytest.raises(TypeError, match="expected an int or a Fraction"):
            WeightedGraph(2, [(0, 1, weight)])

    @pytest.mark.parametrize("weight", [3, Fraction(1, 10)], ids=["int", "fraction"])
    def test_constructor_keeps_exact_weights(self, weight):
        assert WeightedGraph(2, [(0, 1, weight)]).weight(0, 1) == weight

    def test_repr(self):
        assert repr(parse_graph(TRIANGLE_TEXT)) == "WeightedGraph(n=3, m=3)"

    @pytest.mark.parametrize("sep", LINE_SEPARATORS.values(), ids=LINE_SEPARATORS.keys())
    def test_other_line_breaks_stay_in_their_line(self, sep):
        # A comment holding one stays whole; between tokens it is whitespace.
        for nl in NEWLINES:
            g = parse_graph(f"2{sep}1{nl}# note{sep}see below{nl}0{sep}1 1{nl}")
            assert (g.vertex_count, g.edges, g.weight(0, 1)) == (2, ((0, 1),), 1)
            with pytest.raises(GraphFormatError) as err:
                parse_graph(f"2 1{nl}# note{sep}see below{nl}0 1 x{nl}")
            assert str(err.value) == "malformed: bad weight 'x' (line 3)"

    @pytest.mark.parametrize("end", [1.5, 1.0, Fraction(1)], ids=["float", "integral-float", "fraction"])
    def test_constructor_takes_integer_vertex_ids_only(self, end):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            WeightedGraph(2, [(0, end, 1)])

    def test_constructor_stores_bool_vertex_ids_as_ints(self):
        g = WeightedGraph(2, [(False, True, 1)])
        assert g.edges == ((0, 1),) and [type(v) for v in g.edges[0]] == [int, int]

    @pytest.mark.parametrize("n", [2.0, Fraction(2), "2"], ids=["float", "fraction", "str"])
    def test_constructor_takes_an_integer_vertex_count_only(self, n):
        # Read before any other check: not a graph that fails later in a range().
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            WeightedGraph(n, [(0, 1, 1)])
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            WeightedGraph(n, [(0, 5, 1)])

    def test_constructor_reads_a_bool_vertex_count_as_its_int(self):
        with pytest.raises(GraphFormatError, match="^bad-header: vertex count must be positive$"):
            WeightedGraph(False, [(0, 1, 1)])
        with pytest.raises(GraphFormatError, match="^vertex-range: edge \\(0, 1\\) is out of range$"):
            WeightedGraph(True, [(0, 1, 1)])


class TestWeightSharing:
    def test_equal_tokens_share_one_object(self):
        g = parse_graph("4 4\n0 1 7/3\n1 2 7/3\n2 3 5\n0 3 5\n")
        assert g.weight(0, 1) is g.weight(1, 2) == Fraction(7, 3)
        assert g.weight(2, 3) is g.weight(0, 3) == 5

    def test_common_tokens_are_the_shared_constants(self):
        g = parse_graph("4 3\n0 1 0\n1 2 1\n2 3 1/2\n")
        assert g.weight(0, 1) is ZERO
        assert g.weight(1, 2) is ONE
        assert g.weight(2, 3) is HALF

    def test_unreduced_token_keeps_its_value(self):
        g = parse_graph("3 2\n0 1 2/4\n1 2 1/2\n")
        assert g.weight(0, 1) == HALF
        assert g.weight(1, 2) is HALF

    def test_repeated_bad_weight_fails_at_its_first_line(self):
        with pytest.raises(GraphFormatError) as err:
            parse_graph("3 3\n0 1 1\n1 2 1/0\n0 2 1/0\n")
        assert str(err.value) == "malformed: bad weight '1/0' (line 3)"


class TestLazyAdjacency:
    def test_untraversed_paths_leave_it_unbuilt(self):
        g = parse_graph(TRIANGLE_TEXT)
        assert not adjacency_built(g)
        coalition_cost(g, [0, 1])
        min_edge_cover_exact(g)
        fractional_cover_lp(g)
        dual_packing_lp(g)
        assert not adjacency_built(g)

    def test_double_in_half_integral_cover_leaves_it_unbuilt(self, monkeypatch):
        doubles = []
        monkeypatch.setattr(
            covers, "double_graph", lambda g: doubles.append(double_graph(g)) or doubles[-1]
        )
        g = cycle_graph(5)
        half_integral_cover(g)
        assert len(doubles) == 1
        assert not adjacency_built(doubles[0])
        assert adjacency_built(g)  # the bipartiteness test traverses g itself

    def test_first_read_builds_it_once(self):
        g = parse_graph(TRIANGLE_TEXT)
        assert len(g.neighbors(2)) == 2
        assert adjacency_built(g)
        built = WeightedGraph._neighbors.__get__(g)
        assert g.neighbors(0) == (1, 2)
        assert WeightedGraph._neighbors.__get__(g) is built

    def test_matches_reference_from_edge_list(self):
        # Graphs built from their edges in a random order, endpoints in
        # either order, so the sorted neighbor lists do not lean on the
        # input order.
        rng = random.Random(71)
        corpus = [random_graph(rng, max_vertices=12, max_extra_edges=8) for _ in range(150)]
        corpus += [random_bipartite_graph(rng, max_vertices=12) for _ in range(50)]
        corpus += [disjoint_union(*(random_graph(rng, max_vertices=6) for _ in range(3)))
                   for _ in range(20)]
        for h in corpus:
            edges = [(v, u, h.weight(u, v)) if rng.random() < 0.5 else (u, v, h.weight(u, v))
                     for u, v in h.edges]
            rng.shuffle(edges)
            g = WeightedGraph(h.vertex_count, edges)
            for v in g.vertices():
                expected = tuple(sorted(u for e in g.edges if v in e for u in e if u != v))
                assert g.neighbors(v) == expected, (g, v)

    def test_threads_racing_on_the_first_read_agree(self):
        # The build is check-then-act without a lock; it is safe because
        # every racing thread builds equal tuples from the same edges.
        rng = random.Random(29)
        corpus = [random_graph(rng, max_vertices=40, max_extra_edges=30) for _ in range(40)]
        expected = [[tuple(sorted(u for e in h.edges if x in e for u in e if u != x))
                     for x in h.vertices()] for h in corpus]
        fresh = [WeightedGraph(h.vertex_count, [(u, v, h.weight(u, v)) for u, v in h.edges])
                 for h in corpus]
        seen = []

        def read_all():
            seen.append([[g.neighbors(x) for x in g.vertices()] for g in fresh])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=read_all) for _ in range(8)]
            for t in workers:
                t.start()
            for t in workers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in workers)
        assert seen == [expected] * len(workers)

    def test_missing_attribute_is_still_missing(self):
        g = parse_graph(TRIANGLE_TEXT)
        assert not hasattr(g, "missing")
        message = "^'WeightedGraph' object has no attribute 'missing'$"
        with pytest.raises(AttributeError, match=message):
            g.missing
        assert not adjacency_built(g)

    def test_copy(self):
        g = parse_graph(TRIANGLE_TEXT)
        h = copy.copy(g)
        assert h is not g
        assert (h.vertex_count, h.edges) == (g.vertex_count, g.edges)
        assert [h.weight(*e) for e in h.edges] == [g.weight(*e) for e in g.edges]
        assert [h.neighbors(v) for v in h.vertices()] == [(1, 2), (0, 2), (0, 1)]

    @pytest.mark.parametrize(
        "duplicate",
        [copy.copy, copy.deepcopy, lambda g: pickle.loads(pickle.dumps(g))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_of_an_untraversed_graph_stay_unbuilt(self, duplicate):
        g = parse_graph(TRIANGLE_TEXT)
        h = duplicate(g)
        assert not adjacency_built(g) and not adjacency_built(h)
        assert [h.neighbors(v) for v in h.vertices()] == [(1, 2), (0, 2), (0, 1)]
        assert not adjacency_built(g)

    def test_no_attribute_hook(self):
        # CPython 3.11 specializes attribute loads (LOAD_ATTR, LOAD_METHOD)
        # only on types that keep the generic lookup; either hook would
        # leave every attribute read on a graph unspecialized.
        assert not {"__getattr__", "__getattribute__"} & vars(WeightedGraph).keys()


class TestCoalitionEdges:
    def test_empty_coalition_rejected(self):
        with pytest.raises(ValueError, match="^coalition must be nonempty$"):
            coalition(triangle(), set())
        with pytest.raises(ValueError, match="^coalition member 5 is not a vertex$"):
            coalition(triangle(), {5})

    def test_long_numbers_are_cut(self):
        # Past 4300 digits a whole integer in an f-string raises the
        # interpreter's own error; the message quotes 40 digits.
        echo = "9" * 40 + "\u2026"
        with pytest.raises(ValueError, match=f"^coalition member {echo} is not a vertex$"):
            coalition(triangle(), {10**5000 - 1})

    def test_members_are_integers(self):
        for members in ([0.5], [1, 2.0], [Fraction(1)]):
            with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
                coalition(triangle(), members)
            with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
                coalition_cost(triangle(), members)
        s = coalition(triangle(), [True, 2])
        assert s == {1, 2} and {type(v) for v in s} == {int}

    def test_partition_property(self):
        # The edges split into E[S], delta(S) and the rest. The exact
        # solver's candidates are E[S] and delta(S), so the rest never
        # enters a cover.
        rng = random.Random(7)
        for _ in range(30):
            g = random_graph(rng)
            members = {v for v in range(g.vertex_count) if rng.random() < 0.5}
            if not members:
                members = {0}
            inside = {e for e in g.edges if e[0] in members and e[1] in members}
            crossing = {e for e in g.edges if (e[0] in members) != (e[1] in members)}
            outside = set(g.edges) - inside - crossing
            assert all(e[0] not in members and e[1] not in members for e in outside)
            chosen = {e for e, x in min_edge_cover_exact(g, members).values.items() if x}
            assert chosen <= inside | crossing

    def test_cap_counts_inside_and_crossing_edges(self):
        # K8 without the edge 0-1: a coalition of five vertices has as
        # candidates every edge but those among the other three.
        rng = random.Random(13)
        pairs = [e for e in itertools.combinations(range(8), 2) if e != (0, 1)]
        weights = [Fraction(rng.randint(1, 9), rng.randint(1, 3)) for _ in pairs]
        g = WeightedGraph(8, [(u, v, w) for (u, v), w in zip(pairs, weights)])
        members = {0, 1, 2, 3, 4}  # the three others, 5, 6 and 7, keep all 3 of their edges
        candidates = {e for e in g.edges if e[0] in members or e[1] in members}
        assert len(candidates) == 24
        chosen = {e for e, x in min_edge_cover_exact(g, members).values.items() if x}
        assert chosen <= candidates
        assert all(any(v in e for e in chosen) for v in members)
        message = "^25 candidate edges exceed the exact-solver cap of 24$"
        with pytest.raises(CapExceededError, match=message):
            min_edge_cover_exact(g, {2, 3, 4, 5, 6})  # 0, 1 and 7 keep 2 edges


def has_odd_closed_walk(g: WeightedGraph) -> bool:
    """Reference verdict: whether some vertex s reaches (s, 1) in the parity
    double cover, with the helpers' own BFS."""
    return any(parity_distances(g, s)[s][1] != -1 for s in g.vertices())


class TestBipartiteness:
    """``_conflict_vertex``, the package's bipartiteness test, and the odd
    closed walk through its conflict vertex."""

    def test_triangle_is_not(self):
        g = triangle()
        conflict = graphs._conflict_vertex(g)
        assert conflict is not None
        walk = graphs._odd_walk_through(g, conflict)
        assert walk[0] == walk[-1] == conflict
        assert (len(walk) - 1) % 2 == 1
        assert is_walk(g, walk)

    def test_even_cycle_is(self):
        g = cycle_graph(6)
        assert graphs._conflict_vertex(g) is None
        assert not has_odd_closed_walk(g)

    def test_single_edge_is(self):
        assert graphs._conflict_vertex(path_graph([1])) is None

    def test_odd_walk_valid_on_random_graphs(self):
        rng = random.Random(11)
        for _ in range(40):
            g = random_graph(rng)
            conflict = graphs._conflict_vertex(g)
            assert (conflict is not None) == has_odd_closed_walk(g)
            if conflict is not None:
                walk = graphs._odd_walk_through(g, conflict)
                assert walk[0] == walk[-1] and (len(walk) - 1) % 2 == 1
                assert is_walk(g, walk)

    def test_odd_component_after_bipartite_one(self):
        # The conflict, and so the walk, lies in the second component, the
        # first non-bipartite one.
        rng = random.Random(31)
        for _ in range(40):
            first, second = random_bipartite_graph(rng), random_nonbipartite_graph(rng)
            g = disjoint_union(first, second, random_graph(rng))
            conflict = graphs._conflict_vertex(g)
            offset = first.vertex_count
            assert conflict is not None and offset <= conflict < offset + second.vertex_count
            walk = graphs._odd_walk_through(g, conflict)
            assert walk[0] == walk[-1] and (len(walk) - 1) % 2 == 1
            assert is_walk(g, walk)
            assert all(offset <= v < offset + second.vertex_count for v in walk)

    def test_bipartite_unions_are_properly_colored(self):
        rng = random.Random(37)
        for _ in range(40):
            parts = [random_bipartite_graph(rng) for _ in range(rng.randint(2, 4))]
            parts.append(cycle_graph(2 * rng.randint(2, 5)))
            rng.shuffle(parts)
            g = disjoint_union(*parts)
            assert graphs._conflict_vertex(g) is None
            assert not has_odd_closed_walk(g)


class TestShortestOddCycle:
    def test_triangle(self):
        assert shortest_odd_cycle(triangle()).length == 3

    def test_five_cycle(self):
        assert shortest_odd_cycle(cycle_graph(5)).length == 5

    def test_chorded_five_cycle(self):
        # C5 plus a chord splitting it into a triangle and a 4-cycle.
        g = WeightedGraph(
            5,
            [(0, 1, Fraction(1)), (1, 2, Fraction(1)), (2, 3, Fraction(1)),
             (3, 4, Fraction(1)), (0, 4, Fraction(1)), (0, 2, Fraction(1))],
        )
        assert enumerate_shortest_odd_cycle(g) == 3
        assert shortest_odd_cycle(g).length == 3

    def test_bipartite_none(self):
        report = shortest_odd_cycle(cycle_graph(8))
        assert report.length is None and report.witness is None

    def test_witness_shape_and_determinism(self):
        g = cycle_graph(5)
        first = shortest_odd_cycle(g)
        second = shortest_odd_cycle(g)
        assert first == second
        walk = first.witness
        assert walk[0] == walk[-1] == 0
        assert len(set(walk[:-1])) == first.length
        assert is_walk(g, walk)

    def test_builds_only_the_reported_witness(self, monkeypatch):
        # The conflict vertex decides bipartiteness and gives the first
        # bound without an odd-walk witness; only the reported cycle is
        # built as a walk.
        walks = []
        real = graphs._odd_walk_through
        monkeypatch.setattr(graphs, "_odd_walk_through", lambda g, s: walks.append(s) or real(g, s))
        g = disjoint_union(cycle_graph(4), cycle_graph(5), triangle())
        half_integral_cover(g)
        assert walks == []
        assert shortest_odd_cycle(g).witness == (9, 10, 11, 9)
        assert walks == [9]

    @pytest.mark.parametrize("at_end", [False, True], ids=["triangle-first", "triangle-last"])
    def test_per_start_searches_stay_truncated(self, monkeypatch, at_end):
        # A 203-vertex unit path with a triangle at one end. Once the first
        # bound is 4, each start searches only its radius-1 ball, so the
        # whole search makes O(n) neighbor calls; with no bound it makes
        # about 350 per vertex.
        n = 203
        edges = [(v, v + 1, 1) for v in range(n - 1)] + [(0, 2, 1)]
        if at_end:
            edges = [(n - 1 - v, n - 1 - u, w) for u, v, w in edges]
        g = WeightedGraph(n, edges)
        calls = []
        real = WeightedGraph.neighbors
        monkeypatch.setattr(WeightedGraph, "neighbors", lambda self, v: calls.append(v) or real(self, v))
        report = shortest_odd_cycle(g)
        assert report.length == 3
        assert report.witness == ((n - 3, n - 2, n - 1, n - 3) if at_end else (0, 1, 2, 0))
        assert len(calls) < 12 * n

    def test_odd_walk_per_start_matches_parity_double_cover(self):
        # Under every bound b, the truncated search from s returns the
        # distance from (s, 0) to (s, 1) in the parity double cover when it
        # is below b, and None otherwise; each truncated BFS is the full one
        # cut at its limit, in the same visiting order.
        rng = random.Random(53)
        corpus = [random_graph(rng, max_vertices=10, max_extra_edges=4) for _ in range(40)]
        corpus += [random_bipartite_graph(rng, max_vertices=10) for _ in range(15)]
        corpus += [disjoint_union(*(random_graph(rng, max_vertices=5) for _ in range(2)))
                   for _ in range(25)]
        corpus += [disjoint_union(cycle_graph(4), cycle_graph(5), triangle()), cycle_graph(9)]
        cases = {"found": 0, "cut": 0, "bipartite-start": 0}
        for g in corpus:
            n = g.vertex_count
            for s in g.vertices():
                odd = parity_distances(g, s)[s][1]
                for b in [*range(1, 2 * n + 3), math.inf]:
                    expected = odd if 0 < odd < b else None
                    assert graphs._odd_closed_walk_through(g, s, b) == expected, (g, s, b)
                    cases["found" if expected else "cut" if odd > 0 else "bipartite-start"] += 1
                full = list(graphs._bfs_distances(g.neighbors, s).items())
                for limit in [*range(n + 2), math.inf]:
                    cut = list(graphs._bfs_distances(g.neighbors, s, limit).items())
                    assert cut == [(v, d) for v, d in full if d < limit], (g, s, limit)
        assert min(cases.values()) >= 100, cases

    def test_matches_enumeration_oracle(self):
        rng = random.Random(13)
        for _ in range(40):
            g = random_graph(rng, max_vertices=8)
            expected = enumerate_shortest_odd_cycle(g)
            report = shortest_odd_cycle(g)
            assert report.length == expected
            assert (report.length is None) == (graphs._conflict_vertex(g) is None)
            if report.witness is not None:
                walk = report.witness
                assert walk[0] == walk[-1]
                assert len(set(walk[:-1])) == report.length
                assert is_walk(g, walk)

    def test_disjoint_unions_match_enumeration_oracle(self):
        # The random unions have at most 8 vertices, within the oracle's reach;
        # the fixed ones hold a short odd cycle, where the oracle stops.
        rng = random.Random(41)
        shapes = [(3, 5), (5, 3), (4, 4), (2, 3, 3), (3, 2, 3), (3, 3, 2)]
        graphs = [disjoint_union(*(random_graph(rng, max_vertices=k) for k in rng.choice(shapes)))
                  for _ in range(60)]
        graphs += [disjoint_union(cycle_graph(4), cycle_graph(5)),
                   disjoint_union(path_graph([1]), cycle_graph(5), triangle())]
        for g in graphs:
            report = shortest_odd_cycle(g)
            assert report.length == enumerate_shortest_odd_cycle(g)
            assert report == double_cover_odd_cycle(g)

    def test_matches_double_cover_sweep(self):
        # The full parity-double-cover sweep from every vertex is the
        # reference: same length, same start and same witness.
        rng = random.Random(29)
        graphs = [random_graph(rng, max_vertices=14, max_extra_edges=4) for _ in range(180)]
        graphs += [random_nonbipartite_graph(rng, max_vertices=14, max_extra_edges=6)
                   for _ in range(120)]
        graphs += [random_graph(rng, min_vertices=20, max_vertices=40, max_extra_edges=4)
                   for _ in range(60)]
        graphs += [cycle_graph(k) for k in range(3, 32)]
        graphs += [WeightedGraph(r * c, grid_edges(r, c)) for r, c in ((2, 2), (3, 5), (6, 7))]
        # Bipartite component on the lowest ids, odd cycles after it.
        graphs.append(WeightedGraph(27, grid_edges(4, 5) + cycle_edges(7, first=20)))
        graphs.append(WeightedGraph(33, cycle_edges(10) + cycle_edges(9, first=10)
                                    + cycle_edges(5, first=19) + cycle_edges(9, first=24)))
        # A grid with a long odd cycle on higher ids, apart and joined.
        for joined in (False, True):
            bridge = [(48, 49, Fraction(1))] if joined else []
            graphs.append(WeightedGraph(70, grid_edges(7, 7) + cycle_edges(21, first=49) + bridge))
        for g in graphs:
            assert shortest_odd_cycle(g) == double_cover_odd_cycle(g), g

    def test_odd_walk_is_the_path_to_the_copy_in_double_graph(self):
        # The witness walk runs on the double without building it; from
        # every start of a non-bipartite component it is the lexicographic
        # shortest path from s to s + n in ``double_graph(g)``, modulo n.
        rng = random.Random(61)
        corpus = [random_graph(rng, max_vertices=12, max_extra_edges=5) for _ in range(60)]
        corpus += [random_nonbipartite_graph(rng, max_vertices=12, max_extra_edges=6)
                   for _ in range(40)]
        corpus += [disjoint_union(random_bipartite_graph(rng, max_vertices=8),
                                  random_nonbipartite_graph(rng, max_vertices=8))
                   for _ in range(40)]
        corpus += [disjoint_union(cycle_graph(4), cycle_graph(5), triangle()), cycle_graph(11),
                   WeightedGraph(27, grid_edges(4, 5) + cycle_edges(7, first=20))]
        starts = 0
        for g in corpus:
            n = g.vertex_count
            doubled = double_graph(g)
            for s in g.vertices():
                if parity_distances(g, s)[s][1] == -1:
                    continue  # s lies in a bipartite component
                path = graphs._lex_shortest_path(doubled.neighbors, s, s + n)
                assert graphs._odd_walk_through(g, s) == tuple(v % n for v in path), (g, s)
                starts += 1
        assert starts >= 800, starts


class TestDoubleGraph:
    def test_triangle_becomes_six_cycle(self):
        g = double_graph(triangle())
        assert g.vertex_count == 6
        assert set(g.edges) == {(0, 4), (1, 3), (0, 5), (2, 3), (1, 5), (2, 4)}
        assert all(g.weight(*e) == 1 for e in g.edges)
        assert all(len(g.neighbors(v)) == 2 for v in range(6))
        assert graphs._conflict_vertex(g) is None

    def test_single_edge_becomes_two_disjoint_edges(self):
        doubled = double_graph(path_graph([Fraction(5, 2)]))
        assert set(doubled.edges) == {(0, 3), (1, 2)}
        assert all(doubled.weight(*e) == Fraction(5, 2) for e in doubled.edges)

    def test_double_properties_random(self):
        rng = random.Random(17)
        for _ in range(25):
            g = random_graph(rng)
            doubled = double_graph(g)
            n = g.vertex_count
            assert doubled.vertex_count == 2 * n
            assert doubled.edge_count == 2 * g.edge_count
            # every doubled edge crosses the two copies
            assert all((u < n) != (v < n) for u, v in doubled.edges)
            for u, v in g.edges:
                assert doubled.weight(u, v + n) == g.weight(u, v)
                assert doubled.weight(v, u + n) == g.weight(u, v)

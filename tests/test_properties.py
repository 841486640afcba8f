"""Properties over random graphs drawn by hypothesis with a fixed seed:
relabelling the vertices, scaling every weight, and running twice."""

import contextlib
import io
import tempfile
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from covergame import (
    WeightedGraph,
    allocate_alpha_core,
    coalition_cost,
    edge_key,
    format_rational,
    half_integral_cover,
)
from covergame.cli import main

# derandomize: every run draws the same examples; no example database is kept.
PROPERTY = settings(derandomize=True, max_examples=50, deadline=None, database=None)


@st.composite
def graphs(draw) -> WeightedGraph:
    """Up to 7 vertices and 17 edges (under the exact solver's cap of 24),
    weights in [0, 5] with denominators up to 4, zeros and ties included."""
    n = draw(st.integers(2, 7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = set(draw(st.lists(st.sampled_from(pairs), unique=True, max_size=10)))
    for v in range(n):  # minimum degree one
        if not any(v in e for e in edges):
            edges.add(edge_key(v, (v + 1) % n))
    weights = st.fractions(min_value=0, max_value=5, max_denominator=4)
    return WeightedGraph(n, [(u, v, draw(weights)) for u, v in sorted(edges)])


def values(g: WeightedGraph, members) -> tuple:
    """Fractional optimum, cost of the coalition, and the allocation report
    apart from its per-vertex shares (an LP with ties may pick any optimum)."""
    report = allocate_alpha_core(g)
    return (
        half_integral_cover(g).weight,
        coalition_cost(g, members),
        report.alpha,
        report.ratio,
        report.total,
        report.grand_cost,
    )


@PROPERTY
@given(st.data())
def test_relabelling_vertices_changes_no_value(data):
    g = data.draw(graphs())
    perm = data.draw(st.permutations(range(g.vertex_count)))
    members = data.draw(st.sets(st.sampled_from(range(g.vertex_count)), min_size=1))
    h = WeightedGraph(g.vertex_count, [(perm[u], perm[v], g.weight(u, v)) for u, v in g.edges])
    assert values(h, {perm[v] for v in members}) == values(g, members)


@PROPERTY
@given(st.data())
def test_scaling_weights_scales_costs_and_totals(data):
    g = data.draw(graphs())
    k = data.draw(st.fractions(min_value=Fraction(1, 3), max_value=5, max_denominator=3))
    members = data.draw(st.sets(st.sampled_from(range(g.vertex_count)), min_size=1))
    h = WeightedGraph(g.vertex_count, [(u, v, k * g.weight(u, v)) for u, v in g.edges])
    optimum, cost, alpha, ratio, total, grand = values(g, members)
    assert values(h, members) == (k * optimum, k * cost, alpha, ratio, k * total, k * grand)


@PROPERTY
@given(graphs())
def test_two_runs_print_the_same_bytes(g):
    text = f"{g.vertex_count} {g.edge_count}\n" + "".join(
        f"{u} {v} {format_rational(g.weight(u, v))}\n" for u, v in g.edges
    )
    everyone = ",".join(str(v) for v in g.vertices())
    commands = [
        ["frac-cover", "--canonical"],
        ["gap"],
        ["allocate"],
        ["cost", "--coalition", everyone],
    ]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.txt"
        path.write_text(text)
        for command in commands:
            runs = []
            for _ in range(2):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = main([command[0], str(path), *command[1:], "--format", "json"])
                runs.append((code, out.getvalue()))
            assert runs[0] == runs[1] and runs[0][0] == 0

"""Golden bytes of the library's tie-broken structures.

The shortest odd cycle witness, the half-integral cover, the canonical
rounding and its fractional cycles each follow a tie-break policy (lowest
start vertex, lexicographically smallest shortest path, first component
by smallest vertex). The CLI pins guard these bytes on 40 inputs only;
this digest covers a seeded corpus of a few hundred graphs, zero weights
and several components included. A second digest pins which optimum the
exact cover search returns on the same corpus: the first in its search
order, lowest uncovered vertex first, its candidates cheapest first, ties
by edge key.
"""

import hashlib
import random
from fractions import Fraction

from helpers import cycle_edges, grid_edges, random_graph, random_nonbipartite_graph

from covergame import (
    WeightedGraph,
    canonicalize_to_odd_cycles,
    edge_key,
    format_rational,
    fractional_support_cycles,
    half_integral_cover,
    min_edge_cover_exact,
    shortest_odd_cycle,
)

ZERO, HALF, ONE = Fraction(0), Fraction(1, 2), Fraction(1)

# sha256 of the corpus report below; any change to it is a change of
# library output bytes.
GOLDEN_SHA256 = "d91afcbaefd09ed187389174a5611417f4ceb66d32d12971b04da699eb1799ab"
# sha256 of the exact covers of the corpus, two coalitions per graph.
EXACT_GOLDEN_SHA256 = "53fb5e4752120b3413d47c99ec9edc5304ca44d37f478c05b6a2f1af368b9b9f"


def _disjoint_union(rng: random.Random, parts: list[WeightedGraph]) -> WeightedGraph:
    """The parts side by side under a random relabelling, so that no
    component owns a contiguous id range."""
    n = sum(p.vertex_count for p in parts)
    label = list(range(n))
    rng.shuffle(label)
    edges, offset = [], 0
    for p in parts:
        for u, v in p.edges:
            edges.append((label[u + offset], label[v + offset], p.weight(u, v)))
        offset += p.vertex_count
    return WeightedGraph(n, edges)


def corpus() -> list[WeightedGraph]:
    rng = random.Random(2024)
    ties = dict(max_numerator=3, max_denominator=2, min_numerator=0)  # zeros and ties
    graphs = [random_graph(rng, max_vertices=8, max_extra_edges=4, **ties) for _ in range(110)]
    graphs += [random_nonbipartite_graph(rng, max_vertices=8, max_extra_edges=5, **ties)
               for _ in range(90)]
    graphs += [random_nonbipartite_graph(rng, max_vertices=7, max_extra_edges=4) for _ in range(40)]
    graphs += [
        _disjoint_union(rng, [random_graph(rng, max_vertices=5, max_extra_edges=3, **ties)
                              for _ in range(rng.randint(2, 3))])
        for _ in range(60)
    ]
    graphs += [WeightedGraph(k, cycle_edges(k)) for k in range(3, 10)]
    graphs += [WeightedGraph(r * c, grid_edges(r, c)) for r, c in ((2, 2), (2, 3), (3, 3))]
    graphs.append(
        WeightedGraph(14, cycle_edges(5) + cycle_edges(4, first=5) + cycle_edges(5, first=9))
    )
    return graphs


def rounding_corpus() -> list[tuple[WeightedGraph, dict]]:
    """Zero-weight graphs with random feasible half-integral vectors. Every
    cover of such a graph is optimal, so the canonical rounding has even
    cycles, slack-to-slack paths and flowers to work through."""
    rng = random.Random(4048)
    cases = []
    for _ in range(160):
        g = random_graph(rng, min_vertices=3, max_vertices=9, max_extra_edges=8,
                         max_numerator=0, min_numerator=0)
        x = {e: rng.choice((HALF, HALF, HALF, HALF, ONE, ZERO)) for e in g.edges}
        for v in g.vertices():
            incident = sorted(edge_key(v, u) for u in g.neighbors(v))
            while sum(x[e] for e in incident) < 1:
                e = next(e for e in incident if x[e] < 1)
                x[e] += HALF
        cases.append((g, x))
    # All-1/2 vectors, optimal on zero-weight flowers (cycles through one
    # shared vertex) and on unit-weight unions of cycles, relabelled.
    for _ in range(40):
        lengths = [rng.randint(3, 6) for _ in range(rng.randint(2, 3))]
        edges, n = [], 1
        for k in lengths:
            ring = [0] + list(range(n, n + k - 1))
            edges += [(ring[i], ring[(i + 1) % k], ZERO) for i in range(k)]
            n += k - 1
        cases.append(_all_half(_disjoint_union(rng, [WeightedGraph(n, edges)])))
    for _ in range(40):
        parts = [WeightedGraph(k, cycle_edges(k)) for k in rng.sample(range(3, 9), 3)]
        cases.append(_all_half(_disjoint_union(rng, parts)))
    return cases


def _all_half(g: WeightedGraph) -> tuple[WeightedGraph, dict]:
    return g, {e: HALF for e in g.edges}


def _entries(values) -> list:
    return [(e, format_rational(x)) for e, x in sorted(values.items())]


def report(g: WeightedGraph) -> str:
    odd = shortest_odd_cycle(g)
    cert = half_integral_cover(g)
    canonical = canonicalize_to_odd_cycles(g, cert.values)
    return repr((
        (odd.length, odd.witness),
        _entries(cert.values),
        [format_rational(y) for y in cert.dual_witness],
        _entries(canonical),
        fractional_support_cycles(g, canonical),
    ))


def exact_report(g: WeightedGraph, members=None) -> str:
    cert = min_edge_cover_exact(g, members)
    return repr((format_rational(cert.weight), sorted(e for e, x in cert.values.items() if x)))


def rounding_report(g: WeightedGraph, x: dict) -> str:
    canonical = canonicalize_to_odd_cycles(g, x)
    return repr((_entries(canonical), fractional_support_cycles(g, canonical)))


def test_corpus_bytes_match_golden_digest():
    graphs = corpus()
    assert len(graphs) >= 300
    lines = [report(g) for g in graphs]
    lines += [rounding_report(g, x) for g, x in rounding_corpus()]
    text = "\n".join(lines)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_SHA256


def test_exact_covers_match_golden_digest():
    # The grand coalition and one seeded proper coalition of each graph;
    # the corpus has at most 17 edges per graph, inside the exact cap.
    rng = random.Random(7)
    lines = []
    for g in corpus():
        proper = sorted(rng.sample(range(g.vertex_count), rng.randint(1, g.vertex_count - 1)))
        lines += [exact_report(g), exact_report(g, proper)]
    text = "\n".join(lines)
    assert hashlib.sha256(text.encode()).hexdigest() == EXACT_GOLDEN_SHA256

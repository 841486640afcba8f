"""The four benchmark workloads: seeded inputs, one op each, and the
correctness checks that run outside the timed region.

Every workload has a fixed schedule of input sizes that does not depend
on the seed; the seed only draws the structure and weights of each slot's
input. Runs with different seeds therefore time the same mix of sizes,
and a run that ends part-way through its schedule has timed the same
prefix of that mix whatever the seed.

Inputs are plain text (graph files in the ``covergame`` format, plus
coalitions and command lines), so the same seed gives byte-identical
inputs and the program receives only those generated inputs.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import covergame as cg

HALF = Fraction(1, 2)

# The console-script entry point that ``pip install`` generates for
# ``covergame = covergame.cli:main``.
CLI_ENTRY = "import sys; from covergame.cli import main; sys.exit(main())"
CHILD_SCRIPT = Path(__file__).with_name("cli_child.py")


class CheckFailed(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# -- graph generation --------------------------------------------------------


def slot_rng(seed: int, workload: str, slot: int) -> random.Random:
    # String seeds hash with SHA-512, independent of PYTHONHASHSEED.
    return random.Random(f"{seed}:{workload}:{slot}")


def random_edges(
    rng: random.Random, n: int, m: int, *, bipartite: bool = False, odd_cycle: int = 0
) -> list[tuple[int, int]]:
    """A connected simple graph on n vertices with m edges, as sorted pairs.

    A random spanning tree guarantees minimum degree one. ``bipartite``
    keeps every edge between two alternating sides; ``odd_cycle`` plants a
    cycle of that odd length so the graph is never bipartite.
    """
    order = list(range(n))
    rng.shuffle(order)
    edges: set[tuple[int, int]] = set()

    def add(u: int, v: int) -> None:
        edges.add((u, v) if u < v else (v, u))

    start = 1
    if odd_cycle:
        for i in range(odd_cycle):
            add(order[i], order[(i + 1) % odd_cycle])
        start = odd_cycle
    for i in range(start, n):
        choices = range(i % 2 ^ 1, i, 2) if bipartite else range(i)
        add(order[i], order[rng.choice(choices)])
    side = {v: i % 2 for i, v in enumerate(order)}
    while len(edges) < m:
        u, v = rng.sample(range(n), 2)
        if not bipartite or side[u] != side[v]:
            add(u, v)
    return sorted(edges)


def int_weight(rng: random.Random) -> str:
    return str(rng.randint(1, 9))


def big_denominator_weight(rng: random.Random) -> str:
    q = rng.randint(100_000, 999_999)
    return f"{rng.randint(q, 9 * q)}/{q}"


def graph_text(n: int, edges: list[tuple[int, int]], weights: list[str]) -> str:
    lines = [f"{n} {len(edges)}"]
    lines.extend(f"{u} {v} {w}" for (u, v), w in zip(edges, weights))
    return "\n".join(lines) + "\n"


# -- workloads ---------------------------------------------------------------


class Workload:
    """One workload. ``generate`` is a pure function of the seed and returns
    one case per slot; ``prepare`` turns the cases into a list of op
    inputs, one per slot."""

    name = ""
    # Whether ops run in child processes, whose peak RSS is then reported.
    runs_in_children = False

    def generate(self, seed: int) -> list:
        raise NotImplementedError

    def prepare(self, cases: list, workdir: Path) -> list:
        return [cg.parse_graph(text) for (text,) in cases]

    def reference(self, state: list) -> list:
        """Expected values for the checks, computed once outside set-up."""
        return [None] * len(state)

    def op(self, state: list, slot: int):
        raise NotImplementedError

    def traced_op(self, state: list, slot: int, tracer, op_id: int):
        return tracer.run_op(op_id, self.op, state, slot)[0]

    def check(self, state: list, expected: list, slot: int, result) -> None:
        """Raise (CheckFailed or any error) unless ``result`` is correct."""
        raise NotImplementedError


class FracAlloc(Workload):
    """The fractional/LP layer: per op a half-integral cover with its dual
    witness, its odd-cycle canonical form and the dual allocation, on
    sparse graphs of ``SIZES`` vertices and ``EXTRA_EDGES`` more edges.
    The slots cycle through ``KINDS``: bipartite graphs take the LP
    short-circuit, and big-denominator graphs carry 6-digit denominators."""

    name = "frac-alloc"
    SLOTS = 240
    KINDS = ("bipartite", "big-denominator", "int", "int")
    SIZES = (11, 12, 13, 14, 15, 16)  # n
    EXTRA_EDGES = (3, 4, 5)  # m - n

    def generate(self, seed):
        cases = []
        for slot in range(self.SLOTS):
            # Every window of 12 slots holds each kind at each n.
            kind = self.KINDS[slot % len(self.KINDS)]
            n = self.SIZES[slot * 5 % len(self.SIZES)]
            m = n + self.EXTRA_EDGES[slot // 12 % len(self.EXTRA_EDGES)]
            rng = slot_rng(seed, self.name, slot)
            edges = random_edges(rng, n, m, bipartite=kind == "bipartite")
            weight = big_denominator_weight if kind == "big-denominator" else int_weight
            cases.append((graph_text(n, edges, [weight(rng) for _ in edges]),))
        return cases

    def op(self, graphs, slot):
        g = graphs[slot]
        cover = cg.half_integral_cover(g)
        canonical = cg.canonicalize_to_odd_cycles(g, cover.values)
        return cover, canonical, cg.allocate_alpha_core(g)

    def check(self, graphs, expected, slot, result):
        g = graphs[slot]
        weights = {e: g.weight(*e) for e in g.edges}
        cover, canonical, report = result
        for label, x in (("cover", cover.values), ("canonical", canonical)):
            expect(sorted(x) == list(g.edges), f"{label} does not cover exactly the edges")
            expect(all(v in (0, HALF, 1) for v in x.values()), f"{label} is not half-integral")
            expect(is_cover(g.vertex_count, x), f"{label} leaves a vertex uncovered")
            expect(weight_of(weights, x) == cover.weight, f"{label} weight differs from the optimum")
        expect(cover.dual_witness is not None, "cover has no dual witness")
        expect(sum(cover.dual_witness) == cover.weight, "dual witness total differs from weight")
        expect(cg.check_core_dual(g, cover.dual_witness)[0], "dual witness is infeasible")
        cg.fractional_support_cycles(g, canonical)  # raises unless disjoint odd cycles
        expect(sum(report.allocation) == report.total == cover.weight, "allocation total")
        expect(cg.check_core_dual(g, report.allocation)[0], "allocation violates the core")
        expect(report.grand_cost is not None, "grand cost unavailable")
        expect(report.total >= report.alpha * report.grand_cost, "total below alpha * grand cost")


class CoalitionCost(Workload):
    """The integral layer, with no LP calls: per op one exact coalition
    cost under the default cap, for a coalition of at least half the
    vertices on graphs of ``SIZES`` vertices, with ``CANDIDATES`` (give or
    take two) candidate edges. Slots cycle through ``WEIGHTS``: unit
    weights give many ties, and some graphs have zero weights. The
    branch-and-bound time has a heavy tail, so the run needs many distinct
    queries for its mean and 90th percentile to settle."""

    name = "coalition-cost"
    SLOTS = 2400
    WEIGHTS = ("unit",) * 3 + ("zero",) + ("int",) * 6
    SIZES = (14, 22)  # n, inclusive range
    CANDIDATES = (16, 22)  # target candidate edges, inclusive range

    def generate(self, seed):
        schedule = random.Random(f"schedule:{self.name}")  # the same for every seed
        cases = []
        for slot in range(self.SLOTS):
            weights = self.WEIGHTS[slot % len(self.WEIGHTS)]
            n, target = schedule.randint(*self.SIZES), schedule.randint(*self.CANDIDATES)
            rng = slot_rng(seed, self.name, slot)
            edges, members = self._draw_query(rng, n, target)
            if weights == "unit":
                w = ["1"] * len(edges)
            elif weights == "zero":
                w = [str(rng.choice((0, 0, 1, 2, 3, 5, 8))) for _ in edges]
            else:
                w = [str(rng.randint(1, 20)) for _ in edges]
            cases.append((graph_text(n, edges, w), tuple(members)))
        return cases

    @staticmethod
    def _draw_query(rng, n, target):
        # Rejection sampling for a coalition whose candidate edges (inside
        # or on the boundary) number within two of the target.
        while True:
            edges = random_edges(rng, n, rng.randint(n + 2, n + 10))
            for _ in range(40):
                members = sorted(rng.sample(range(n), rng.randint((n + 1) // 2, n)))
                s = set(members)
                candidates = sum(1 for u, v in edges if u in s or v in s)
                if abs(candidates - target) <= 2:
                    return edges, members

    def prepare(self, cases, workdir):
        return [(cg.parse_graph(text), members) for text, members in cases]

    def reference(self, queries):
        return [
            reference_cost({e: g.weight(*e) for e in g.edges}, members) for g, members in queries
        ]

    def op(self, queries, slot):
        g, members = queries[slot]
        return cg.coalition_cost(g, members)

    def check(self, queries, expected, slot, result):
        expect(result == expected[slot], f"cost {result} != expected {expected[slot]}")


@dataclass(frozen=True)
class CliCall:
    case: tuple  # (command, format, graph text, allocation text or coalition)
    argv: list
    env: dict
    cwd: Path
    workdir: Path
    pinned: str | None  # sha256 of the stdout recorded for this input, if any


class CliIo(Workload):
    """The user-facing process path: per op one ``covergame`` process
    (interpreter start, imports, parsing, the O(m) checkers, the O(nm)
    odd-cycle search, rendering), over the rotation ``COMMANDS``: verify
    with big denominators and gap on large graphs, frac-cover, allocate
    and cost at desk scale, in both output formats.

    Each output is parsed and checked against the benchmark's own
    references. For the inputs of the recorded seeds the sha256 of stdout
    must also equal the one pinned in ``cli_outputs.json``, so the CLI's
    bytes may not change."""

    name = "cli-io"
    runs_in_children = True
    # (subcommand, n, m) per slot; the list runs twice, once per format.
    # The desk-scale commands cost little beyond interpreter start-up and
    # make up the bottom 60% of op times, verify and gap the top 40%, so
    # the median and the 90th percentile each fall inside one group.
    COMMANDS = (
        ("verify", 2000, 2600),
        ("cost", 8, 11),
        ("frac-cover", 7, 10),
        ("gap", 400, 520),
        ("allocate", 8, 11),
        ("cost", 7, 10),
        ("verify", 2000, 2600),
        ("frac-cover", 8, 11),
        ("gap", 400, 520),
        ("allocate", 7, 10),
    )

    def generate(self, seed):
        cases = []
        for slot, (command, n, m) in enumerate(self.COMMANDS * 2):
            rng = slot_rng(seed, self.name, slot)
            edges = random_edges(rng, n, m)
            weight = big_denominator_weight if command == "verify" else int_weight
            weights = [weight(rng) for _ in edges]
            extra = ""
            if command == "verify":
                extra = allocation_text(n, edges, weights)
            elif command == "cost":
                extra = ",".join(map(str, sorted(rng.sample(range(n), (n + 1) // 2))))
            fmt = "text" if slot < len(self.COMMANDS) else "json"
            cases.append((command, fmt, graph_text(n, edges, weights), extra))
        return cases

    def prepare(self, cases, workdir):
        root = Path(__file__).resolve().parent.parent
        env = cli_env(root)
        pins = json.loads(PINNED_OUTPUTS.read_text(encoding="utf-8"))["stdout_sha256"]
        calls = []
        for slot, case in enumerate(cases):
            command, fmt, text, extra = case
            graph = workdir / f"g{slot}.txt"
            graph.write_text(text, encoding="utf-8")
            argv = [command, str(graph)]
            if command == "verify":
                alloc = workdir / f"a{slot}.txt"
                alloc.write_text(extra, encoding="utf-8")
                argv.append(str(alloc))
            elif command == "cost":
                argv += ["--coalition", extra]
            elif command == "frac-cover":
                argv.append("--canonical")
            argv += ["--format", fmt]
            calls.append(CliCall(case, argv, env, root, workdir, pins.get(case_digest(case))))
        return calls

    def reference(self, calls):
        return [cli_reference(call.case) for call in calls]

    def op(self, calls, slot):
        call = calls[slot]
        cmd = [sys.executable, "-c", CLI_ENTRY, *call.argv]
        return _run(cmd, call)

    def traced_op(self, calls, slot, tracer, op_id):
        # The child entry script records spans from the parent's spawn time
        # (perf_counter is CLOCK_MONOTONIC, shared by all processes).
        call = calls[slot]
        out = call.workdir / "child-spans.json"

        def spawn():
            cmd = [sys.executable, str(CHILD_SCRIPT), repr(perf_counter()), str(out), *call.argv]
            return _run(cmd, call)

        result, index = tracer.run_op(op_id, spawn)
        tracer.merge_child(json.loads(out.read_text(encoding="utf-8")), index)
        return result

    def check(self, calls, expected, slot, result):
        call = calls[slot]
        code, stdout = result
        expect(code == 0, f"exit code {code}")
        if call.pinned is not None:
            digest = hashlib.sha256(stdout).hexdigest()
            expect(digest == call.pinned, "stdout differs from the output pinned for this input")
        command, fmt, _, _ = call.case
        check_cli_answer(command, cli_answer(command, fmt, stdout.decode("utf-8")), expected[slot])


PINNED_OUTPUTS = Path(__file__).with_name("cli_outputs.json")


def case_digest(case: tuple) -> str:
    return hashlib.sha256(json.dumps(case).encode("utf-8")).hexdigest()


def cli_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run(cmd: list, call: CliCall) -> tuple[int, bytes]:
    """Run one CLI process; returns (exit code, stdout)."""
    proc = subprocess.run(
        cmd, env=call.env, cwd=call.cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    return proc.returncode, proc.stdout


class OracleCertify(Workload):
    """The oracle layer, unmeasured elsewhere: per op the 3^m grid, the
    2^m cover subsets of the grand coalition, all coalitions against the
    dual allocation and all odd sets against the canonical cover, on small
    non-bipartite graphs of ``SIZES`` vertices. The fast-path values are
    computed before the timed loop."""

    name = "oracle-certify"
    # n per slot, cycling; every graph is a planted 5-cycle plus a random
    # tree, so m = n. The 3^m grid makes op times jump about threefold
    # from one n to the next, so the cycle gives the middle half of ops
    # one size and the top quarter another: the median and the 90th
    # percentile fall well inside a size class, not on a jump between two.
    SIZES = (6, 7, 8, 7)
    SLOTS = 200

    def generate(self, seed):
        cases = []
        for slot in range(self.SLOTS):
            n = self.SIZES[slot % len(self.SIZES)]
            rng = slot_rng(seed, self.name, slot)
            edges = random_edges(rng, n, n, odd_cycle=5)
            cases.append((graph_text(n, edges, [int_weight(rng) for _ in edges]),))
        return cases

    def prepare(self, cases, workdir):
        return [[cg.parse_graph(text), None] for (text,) in cases]

    @staticmethod
    def fast_path(entry):
        """The fast-path values the oracles certify, computed on first use:
        the warm-up op pays for slot 0 inside set-up, ``reference`` for the
        other slots before the timed loop."""
        if entry[1] is None:
            g = entry[0]
            cover = cg.half_integral_cover(g, include_dual_witness=False)
            canonical = cg.canonicalize_to_odd_cycles(g, cover.values)
            report = cg.allocate_alpha_core(g)
            entry[1] = (cover.weight, report.grand_cost, report.allocation, canonical)
        return entry[1]

    def reference(self, state):
        return [self.fast_path(entry) for entry in state]

    def op(self, state, slot):
        g = state[slot][0]
        _, _, allocation, canonical = self.fast_path(state[slot])
        return (
            cg.brute_fractional_optimum(g),
            cg.brute_min_cover(g, range(g.vertex_count)),
            cg.brute_core_check(g, allocation),
            cg.verify_scaled_cover_membership(g, canonical),
        )

    def check(self, state, expected, slot, result):
        weight, grand, _, _ = expected[slot]
        fractional, integral, core, membership = result
        expect(fractional == weight, f"grid optimum {fractional} != fast path {weight}")
        expect(integral == grand, f"brute grand cost {integral} != fast path {grand}")
        expect(core == (True, None), f"dual allocation fails the core oracle at {core[1]}")
        expect(membership == (True, None), f"scaled cover misses odd set {membership[1]}")


WORKLOADS = {w.name: w for w in (FracAlloc(), CoalitionCost(), CliIo(), OracleCertify())}


# -- references owned by the benchmark ---------------------------------------


def read_graph(text: str) -> tuple[int, dict]:
    """A graph file this module wrote, as (n, {(u, v): weight})."""
    header, *lines = text.splitlines()
    weights = {}
    for line in lines:
        u, v, w = line.split()
        weights[(int(u), int(v))] = Fraction(w)
    return int(header.split()[0]), weights


def is_cover(n: int, x) -> bool:
    load = [Fraction(0)] * n
    for (u, v), value in x.items():
        load[u] += value
        load[v] += value
    return all(total >= 1 for total in load)


def weight_of(weights: dict, x) -> Fraction:
    return sum((weights[e] * value for e, value in x.items()), Fraction(0))


def allocation_text(n: int, edges, weights) -> str:
    """Half the cheapest incident weight per vertex: a dual-feasible, hence
    core, allocation (a_u + a_v <= w_uv on every edge)."""
    cheapest: list[Fraction | None] = [None] * n
    for (u, v), w in zip(edges, weights):
        w = Fraction(w)
        for x in (u, v):
            if cheapest[x] is None or w < cheapest[x]:
                cheapest[x] = w
    lines = []
    for v, w in enumerate(cheapest):
        a = w / 2
        lines.append(f"{v} {a.numerator}" + (f"/{a.denominator}" if a.denominator != 1 else ""))
    return "\n".join(lines) + "\n"


def reference_cost(weights: dict, members) -> Fraction:
    """Coalition cost by memoised recursion over uncovered-vertex bitmasks.

    Some optimal cover picks an edge at the lowest uncovered vertex, so
    c(U) = min over candidate edges e at min(U) of w_e + c(U - e). This
    shares no logic with the branch and bound it checks.
    """
    order = sorted(set(members))
    bit = {v: 1 << i for i, v in enumerate(order)}
    options: list[list[tuple[int, Fraction]]] = [[] for _ in order]
    for (u, v), w in weights.items():
        mask = bit.get(u, 0) | bit.get(v, 0)
        if mask:
            for x in (u, v):
                if x in bit:
                    options[order.index(x)].append((mask, w))
    memo = {0: Fraction(0)}

    def cost(uncovered: int) -> Fraction:
        if uncovered not in memo:
            low = (uncovered & -uncovered).bit_length() - 1
            memo[uncovered] = min(w + cost(uncovered & ~mask) for mask, w in options[low])
        return memo[uncovered]

    return cost((1 << len(order)) - 1)


def fractional_optimum(n: int, weights: dict) -> Fraction:
    """Minimum fractional edge cover weight: half the minimum edge cover of
    the bipartite double cover (u, v) -> (u, n+v), (v, n+u), whose edge
    cover polytope is integral."""
    double = {}
    for (u, v), w in weights.items():
        double[(u, n + v)] = w
        double[(v, n + u)] = w
    return reference_cost(double, range(2 * n)) / 2


def shortest_odd_cycle_length(n: int, weights: dict) -> int | None:
    """Breadth-first search from every vertex: an edge between two vertices
    at the same depth d closes an odd walk of length 2d + 1, and from a
    vertex on a shortest odd cycle that bound is met."""
    adjacent: list[list[int]] = [[] for _ in range(n)]
    for u, v in weights:
        adjacent[u].append(v)
        adjacent[v].append(u)
    best = None
    for source in range(n):
        depth = [-1] * n
        depth[source] = 0
        frontier = [source]
        while frontier:
            following = []
            for u in frontier:
                for v in adjacent[u]:
                    if depth[v] < 0:
                        depth[v] = depth[u] + 1
                        following.append(v)
            frontier = following
        for u, v in weights:
            if depth[u] >= 0 and depth[u] == depth[v]:
                length = 2 * depth[u] + 1
                best = length if best is None else min(best, length)
    return best


# -- CLI outputs ---------------------------------------------------------------


def cli_reference(case: tuple) -> dict:
    """What a correct ``covergame`` run on this input must answer, computed
    by the references above."""
    command, _, text, extra = case
    if command == "verify":
        # The allocation is dual-feasible by construction (allocation_text).
        return {}
    n, weights = read_graph(text)
    ref: dict = {"n": n, "weights": weights}
    if command == "cost":
        ref["members"] = [int(v) for v in extra.split(",")]
        ref["cost"] = reference_cost(weights, ref["members"])
    if command in ("frac-cover", "allocate"):
        ref["optimum"] = fractional_optimum(n, weights)
    if command in ("gap", "allocate"):
        ref["ell"] = shortest_odd_cycle_length(n, weights)
    if command == "allocate":
        ref["grand_cost"] = reference_cost(weights, range(n))
    return ref


def _walk(text: str) -> list[int]:
    return [int(v) for v in text.split("-")]


def cli_answer(command: str, fmt: str, stdout: str) -> dict:
    """The answer a ``covergame`` command printed, in either format, as
    plain values: rationals as Fractions, edges as (u, v) tuples."""
    if fmt == "json":
        p = json.loads(stdout)
        if command == "verify":
            return {"ok": p["ok"] and p["dual"]["ok"] and p["stars"]["ok"]}
        if command == "cost":
            return {"coalition": p["coalition"], "cost": Fraction(p["cost"])}
        if command == "frac-cover":
            return {
                "weight": Fraction(p["weight"]),
                "cover": {tuple(e["edge"]): Fraction(e["value"]) for e in p["entries"]},
                "cycles": p["fractional_cycles"],
            }
        if command == "gap":
            return {"ell": p["ell"], "rho": Fraction(p["rho"]), "cycle": p["cycle"]}
        return {
            **{k: Fraction(p[k]) for k in ("alpha", "total", "grand_cost", "ratio")},
            "allocation": [Fraction(a) for a in p["allocation"]],
        }
    # Text: "key: value" lines; a "key:" line heads the indented lines after it.
    fields: dict[str, str] = {}
    blocks: dict[str, list[str]] = {}
    for line in stdout.splitlines():
        if line.startswith("  "):
            blocks[head].append(line.strip())
            continue
        key, _, value = line.partition(":")
        if value.strip():
            fields[key] = value.strip()
        else:
            head = key
            blocks[head] = []
    if command == "verify":
        return {
            "ok": fields["dual check"] == "ok"
            and fields["star check"] == "ok"
            and fields["verdict"] == "core property holds"
        }
    if command == "cost":
        members = [int(v) for v in fields["coalition"].split(",")]
        return {"coalition": members, "cost": Fraction(fields["cost"])}
    if command == "frac-cover":
        cover = {}
        for line in blocks["cover"]:
            edge, value = line.split(" = ")
            cover[tuple(_walk(edge))] = Fraction(value)
        return {
            "weight": Fraction(fields["weight"]),
            "cover": cover,
            "cycles": [_walk(line) for line in blocks.get("fractional cycles", [])],
        }
    if command == "gap":
        ell, rho = int(fields["ell"]), Fraction(fields["rho"])
        return {"ell": ell, "rho": rho, "cycle": _walk(fields["cycle"])}
    return {
        "alpha": Fraction(fields["alpha"]),
        "total": Fraction(fields["total"]),
        "grand_cost": Fraction(fields["grand cost"]),
        "ratio": Fraction(fields["ratio"]),
        "allocation": [Fraction(line.split(" = ")[1]) for line in blocks["allocation"]],
    }


def check_closed_walk(weights: dict, walk: list[int], length: int | None = None) -> None:
    expect(len(walk) > 1 and walk[0] == walk[-1], f"{walk} is not closed")
    expect(len(walk) % 2 == 0, f"{walk} has even length")
    expect(length is None or len(walk) - 1 == length, f"{walk} is not of length {length}")
    for a, b in zip(walk, walk[1:]):
        expect((min(a, b), max(a, b)) in weights, f"{walk} leaves the graph at {a}-{b}")


def check_cli_answer(command: str, answer: dict, ref: dict) -> None:
    if command == "verify":
        expect(answer["ok"] is True, "a dual-feasible allocation was not verified")
    elif command == "cost":
        expect(answer["coalition"] == ref["members"], "coalition differs from the input")
        expect(answer["cost"] == ref["cost"], f"cost {answer['cost']} != expected {ref['cost']}")
    elif command == "frac-cover":
        cover = answer["cover"]
        expect(set(cover) <= set(ref["weights"]), "cover names an edge not in the graph")
        expect(all(v in (HALF, 1) for v in cover.values()), "cover is not half-integral")
        expect(is_cover(ref["n"], cover), "cover leaves a vertex uncovered")
        expect(weight_of(ref["weights"], cover) == answer["weight"], "weight is not the cover's")
        expect(answer["weight"] == ref["optimum"], f"weight {answer['weight']} is not optimal")
        halves = set()
        for walk in answer["cycles"]:
            check_closed_walk(ref["weights"], walk)
            halves |= {(min(a, b), max(a, b)) for a, b in zip(walk, walk[1:])}
        expect(halves == {e for e, v in cover.items() if v == HALF}, "1/2 edges are not the cycles")
    elif command == "gap":
        ell = ref["ell"]
        expect(answer["ell"] == ell, f"ell {answer['ell']} != shortest odd cycle {ell}")
        expect(answer["rho"] == 1 + Fraction(1, ell), f"rho {answer['rho']} != 1 + 1/{ell}")
        check_closed_walk(ref["weights"], answer["cycle"], ell)
    else:
        n, weights, total = ref["n"], ref["weights"], answer["total"]
        allocation = answer["allocation"]
        expect(len(allocation) == n, "allocation does not give every vertex a share")
        expect(total == sum(allocation) == ref["optimum"], "total is not the fractional optimum")
        expect(
            all(allocation[u] + allocation[v] <= w for (u, v), w in weights.items()),
            "allocation is not dual-feasible",
        )
        expect(answer["grand_cost"] == ref["grand_cost"], "grand cost differs from expected")
        expect(answer["ratio"] == total / ref["grand_cost"], "ratio is not total / grand cost")
        alpha = 1 if ref["ell"] is None else Fraction(ref["ell"], ref["ell"] + 1)
        expect(answer["alpha"] == alpha, f"alpha {answer['alpha']} != {alpha}")
        expect(total >= alpha * ref["grand_cost"], "total below alpha * grand cost")

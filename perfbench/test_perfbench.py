"""Self-tests for the benchmark harness.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import covergame  # noqa: E402
import covergame.cli  # noqa: E402,F401  (so the tracer sees every layer module)
import run  # noqa: E402
import tracing  # noqa: E402
from fractions import Fraction  # noqa: E402
from workloads import WORKLOADS, reference_cost  # noqa: E402

SEED = run.DEFAULT_SEED


def bindings() -> dict:
    """Every attribute of every covergame module, by identity."""
    return {
        (name, attr): id(value)
        for name, mod in sys.modules.items()
        if name == "covergame" or name.startswith("covergame.")
        for attr, value in vars(mod).items()
    }


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.OUT_DIR.mkdir(exist_ok=True)
        cls.workdir = Path(tempfile.mkdtemp(prefix="test-", dir=run.OUT_DIR))
        cls.states = {}
        for name, w in WORKLOADS.items():
            state = w.prepare(w.generate(SEED), cls.workdir)
            cls.states[name] = (state, w.reference(state))

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.workdir, ignore_errors=True)

    def test_same_seed_gives_identical_inputs(self):
        for name, w in WORKLOADS.items():
            first = repr(w.generate(SEED)).encode()
            self.assertEqual(first, repr(w.generate(SEED)).encode(), name)
            self.assertNotEqual(first, repr(w.generate(run.HELD_OUT_SEED)).encode(), name)

    def test_planted_wrong_results_are_failures(self):
        for name, w in WORKLOADS.items():
            state, expected = self.states[name]
            good = w.op(state, 0)
            records = [run.Record(0, 0.0, 0.0, good, None, 0)]
            self.assertEqual(run.failures(w, state, expected, records), [])
            for bad in self.planted(name, good):
                records = [run.Record(0, 0.0, 0.0, bad, None, 0)]
                self.assertEqual(len(run.failures(w, state, expected, records)), 1, (name, bad))

    @staticmethod
    def planted(name, good):
        if name == "frac-alloc":
            cover, canonical, report = good
            edge = next(iter(canonical))
            return [
                (cover, {**canonical, edge: canonical[edge] + 1}, report),
                (cover, canonical, dataclasses.replace(report, total=report.total + 1)),
            ]
        if name == "coalition-cost":
            return [good + 1]
        if name == "cli-io":
            return [(0, b"not an answer\n"), (1, good[1]), (0, good[1] + b"\n")]
        fractional, integral, core, membership = good
        return [
            (fractional + 1, integral, core, membership),
            (fractional, integral, (False, {0}), membership),
        ]

    def test_recorded_seeds_have_pinned_cli_outputs(self):
        w = WORKLOADS["cli-io"]
        with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
            for seed in (run.DEFAULT_SEED, run.HELD_OUT_SEED):
                calls = w.prepare(w.generate(seed), Path(tmp))
                self.assertTrue(all(call.pinned for call in calls), seed)

    def test_wrong_cli_answers_fail_without_pins(self):
        # A wrong but well-formed answer on an unpinned input: one field of
        # each command's output, changed.
        w = WORKLOADS["cli-io"]
        state, expected = self.states["cli-io"]
        calls = [dataclasses.replace(call, pinned=None) for call in state]
        for slot, call in enumerate(calls):
            command, fmt, _, _ = call.case
            good = w.op(calls, slot)
            self.assertEqual(run.failures(w, calls, expected, [run.Record(slot, 0, 0, good, None, 0)]), [])
            bad = (0, self.wrong_answer(command, fmt, good[1].decode()).encode())
            records = [run.Record(slot, 0.0, 0.0, bad, None, 0)]
            self.assertEqual(len(run.failures(w, calls, expected, records)), 1, (command, fmt))

    @staticmethod
    def wrong_answer(command, fmt, out):
        key = {"verify": "ok", "cost": "cost", "frac-cover": "weight", "gap": "ell"}.get(command, "total")
        if fmt == "json":
            payload = json.loads(out)
            value = payload[key]
            if isinstance(value, bool):
                payload[key] = not value
            elif isinstance(value, int):
                payload[key] = value + 2
            else:
                payload[key] = str(Fraction(value) + 1)
            return json.dumps(payload, indent=2) + "\n"
        if command == "verify":
            return out.replace("core property holds", "core property violated")
        step = 2 if command == "gap" else 1
        return re.sub(
            rf"^{key}: (\S+)$", lambda m: f"{key}: {Fraction(m[1]) + step}", out, flags=re.M
        )

    def test_an_op_that_raises_is_a_failure(self):
        def op(slot, i):
            raise RuntimeError("planted")

        records = run.closed_loop(op, 3, 0.0, run.SpeedProbe(False))
        w = WORKLOADS["coalition-cost"]
        state, expected = self.states["coalition-cost"]
        self.assertEqual(len(run.failures(w, state, expected, records)), len(records))

    def test_tracing_restores_bindings_and_keeps_outputs(self):
        before = bindings()
        for name, w in WORKLOADS.items():
            state, expected = self.states[name]
            plain = [w.op(state, slot) for slot in range(2)]
            tracer = tracing.Tracer()
            with tracer:
                self.assertTrue(hasattr(covergame.covers.solve, "__wrapped__"))
                traced = [w.traced_op(state, slot, tracer, slot) for slot in range(2)]
            self.assertEqual(bindings(), before, name)
            self.assertEqual(plain, traced, name)
            records = [run.Record(slot, 0.0, 0.0, r, None, 0) for slot, r in enumerate(traced)]
            self.assertEqual(run.failures(w, state, expected, records), [], name)

    def test_self_times_add_up_to_op_wall_time(self):
        for name, w in WORKLOADS.items():
            state, _ = self.states[name]
            tracer = tracing.Tracer()
            with tracer:
                w.traced_op(state, 1, tracer, 7)
            own = tracing.self_times(tracer.spans)
            (root,) = [i for i, s in enumerate(tracer.spans) if s[0] == tracing.OP_SPAN]
            wall = tracer.spans[root][2] - tracer.spans[root][1]
            total = sum(own[i] for i, s in enumerate(tracer.spans) if s[4] == 7)
            self.assertAlmostEqual(total, wall, delta=1e-9, msg=name)
            self.assertTrue(all(s[4] == 7 for s in tracer.spans), name)
            self.assertGreater(len(tracer.spans), 1, name)

    def test_missing_function_is_skipped_and_reads_zero(self):
        original = covergame.game.integrality_gap
        del covergame.game.integrality_gap
        try:
            tracer = tracing.Tracer()
            with tracer:
                pass
            metrics = tracing.layer_metrics(tracer, 1)
            self.assertEqual(metrics["game.gap.self_ms"]["value"], 0)
        finally:
            covergame.game.integrality_gap = original

    def test_reference_costs_match_the_brute_force_oracle(self):
        queries, expected = self.states["coalition-cost"]
        checked = 0
        budget = covergame.OracleBudget().max_cover_edges
        for (g, members), cost in list(zip(queries, expected))[:40]:
            s = set(members)
            if sum(1 for u, v in g.edges if u in s or v in s) <= budget:
                weights = {e: g.weight(*e) for e in g.edges}
                self.assertEqual(reference_cost(weights, members), covergame.brute_min_cover(g, members))
                self.assertEqual(cost, reference_cost(weights, members))
                checked += 1
        self.assertGreater(checked, 10)

    def test_benchmark_json_names_what_the_run_prints(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END_UNITS
        )
        layer = {name: unit for name, unit, _, _ in tracing.PER_LAYER}
        layer["trace.overhead_pct"] = "%"
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, layer)

    def test_all_runs_each_workload_in_its_own_process(self):
        proc = run.subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "all", "--seconds", "0"],
            stdout=run.subprocess.PIPE,
            text=True,
            timeout=170,
        )
        self.assertEqual(proc.returncode, 0, proc.stdout[-2000:])
        result = json.loads(proc.stdout.splitlines()[-1])
        self.assertTrue(result["correct"])
        self.assertEqual(
            set(result["metrics"]),
            {f"{w}.{m}" for w in WORKLOADS for m in run.END_TO_END_UNITS},
        )
        for name in WORKLOADS:
            self.assertIn(f"[{name}]", proc.stdout)

    def test_benchmark_refuses_to_run_without_sources(self):
        with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
            copy = Path(tmp) / "perfbench"
            shutil.copytree(HERE, copy, ignore=shutil.ignore_patterns("__pycache__"))
            proc = run.subprocess.run(
                [sys.executable, str(copy / "run.py"), "--workload", "frac-alloc"],
                stdout=run.subprocess.PIPE,
                stderr=run.subprocess.PIPE,
                text=True,
                timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()

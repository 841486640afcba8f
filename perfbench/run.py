"""covergame benchmark: four seeded workloads, end-to-end metrics, and
per-layer spans traced from outside the program.

    python3 perfbench/run.py --workload frac-alloc --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one process each

Each workload is a closed loop with one caller: the next op starts when
the previous one returns, and at most one child process runs at a time.
The run sets up several times (imports in a fresh interpreter, input
generation, one warm-up op) and reports the median as ``setup_s``, then
times ops for ``--seconds`` and checks every result outside the timed
region. A failed check, an exception or a non-zero exit counts in
``failed``.

Times are reported at a reference machine speed (see ``SpeedProbe``);
the human-readable lines also give them as timed.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs the same
ops untraced for half the time and traced for the other half, prints the
per-layer metrics (self time per op, call and work counts) and
``trace.overhead_pct``, and writes the spans to
``.perfbench/spans-<workload>-seed<seed>.json``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The sources are read from
``src/`` next to this directory; without them the benchmark exits with
code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"

DEFAULT_SEED = 1
# Later claims must also hold on this seed, which is not used while tuning.
HELD_OUT_SEED = 97
SETUP_REPEATS = 5

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "cpu_ms_per_op": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def calibration_task() -> Fraction:
    """Fixed pure-Python work that shares no code with covergame."""
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(1, i % 97 + 1)
    return total


CHILD_CALIBRATION = (
    "from fractions import Fraction as F\n"
    "t = F(0)\n"
    "for i in range(1, 1000): t += F(1, i % 97 + 1)\n"
)


@dataclass
class SpeedProbe:
    """Measures how fast the machine runs right now.

    The two vCPUs this benchmark was tuned on switch between a fast state
    and one about twice as slow from one second to the next, and the share
    of time spent in each drifts by tens of percent from minute to minute
    (the same Fraction loop took 52 ms or 95 ms). Raw times are therefore
    not comparable between runs. Each run interleaves a fixed calibration
    task with its ops and scales its times by ``reference / measured``:
    the reported times are those of a machine on which the task takes
    exactly ``reference`` seconds. The task never touches covergame, so a
    change to the program cannot move it.

    In-process workloads calibrate with ``calibration_task`` (reference
    1 ms, about the fast state of the tuning machine) at least every
    ``interval`` seconds of op time. Workloads whose ops are processes
    calibrate with a fresh interpreter running the same kind of loop
    (reference 60 ms), so that process start-up is calibrated too: with
    the in-process form alone, five 25-s ``cli-io`` runs spread 9-12%
    between seeds, against 5-6% with this form.
    """

    in_children: bool
    samples: list[float] = field(default_factory=list)

    @property
    def reference(self) -> float:
        return 0.060 if self.in_children else 0.001

    @property
    def interval(self) -> float:
        return 0.5 if self.in_children else 0.01

    @property
    def per_mark(self) -> int:
        # In-process samples are short and noisy, so a mark takes several.
        return 1 if self.in_children else 5

    def sample(self) -> None:
        start = perf_counter()
        if self.in_children:
            subprocess.run([sys.executable, "-c", CHILD_CALIBRATION], cwd=ROOT, check=True)
        else:
            calibration_task()
        self.samples.append(perf_counter() - start)

    def mark(self) -> int:
        """Take ``per_mark`` samples; returns the index of the first."""
        first = len(self.samples)
        for _ in range(self.per_mark):
            self.sample()
        return first

    def factor(self, first: int = 0, last: int | None = None) -> float:
        """Multiply a time measured between samples ``first`` and ``last``
        (default: the whole sampled period) by this."""
        return self.reference / statistics.mean(self.samples[first:last])


@dataclass
class Record:
    slot: int
    wall: float
    cpu: float
    result: object
    error: BaseException | None
    sample: int  # index of the last speed sample taken before the op


def cpu_seconds() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + children.ru_utime + children.ru_stime


def closed_loop(op, slots: int, seconds: float, probe: SpeedProbe) -> list[Record]:
    """Run ops back to back over the slots until ``seconds`` have passed,
    sampling the machine speed before the first op, after the last and
    between ops at least every ``probe.interval`` seconds of op time."""
    records = []
    deadline = perf_counter() + seconds
    probe.sample()
    since_sample = 0.0
    i = 0
    while True:
        slot = i % slots
        c0, t0 = cpu_seconds(), perf_counter()
        try:
            result, error = op(slot, i), None
        except Exception as exc:  # an op that raises is a failed op, not a crash
            result, error = None, exc
        t1, c1 = perf_counter(), cpu_seconds()
        records.append(Record(slot, t1 - t0, c1 - c0, result, error, len(probe.samples) - 1))
        i += 1
        since_sample += t1 - t0
        if since_sample >= probe.interval or t1 >= deadline:
            probe.sample()
            since_sample = 0.0
        if t1 >= deadline:
            return records


def import_seconds(env: dict) -> float:
    """Import time of the package in a fresh interpreter, at reference
    speed: right after the import, the interpreter times
    ``calibration_task`` a few times, and the import is scaled by the
    median."""
    probe = "\n".join(
        [
            "import time",
            "t = time.perf_counter()",
            "import covergame, covergame.cli",
            "t = time.perf_counter() - t",
            "from fractions import Fraction",
            inspect.getsource(calibration_task),
            "samples = []",
            "for _ in range(5):",
            "    s = time.perf_counter(); calibration_task(); samples.append(time.perf_counter() - s)",
            "print(t, *samples)",
        ]
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        check=True,
    )
    imports, *samples = map(float, out.stdout.split())
    return imports * SpeedProbe(False).reference / statistics.median(samples)


def at_reference(probe: SpeedProbe, task):
    """Run ``task()`` between two marks of ``probe``; returns its result
    and its time scaled by those samples."""
    first = probe.mark()
    start = perf_counter()
    result = task()
    elapsed = perf_counter() - start
    probe.mark()
    return result, elapsed * probe.factor(first)


def set_up(workload, seed: int, workdir: Path, env: dict):
    """One set-up: imports, input generation and preparation, one warm-up
    op. Returns its time at reference speed, the cases and the state.

    Imports are calibrated inside their own interpreter. Generation and
    preparation run in this process and are calibrated in it; the warm-up
    op is calibrated like the workload's timed ops."""

    def warm_up():
        try:
            workload.op(state, 0)
        except Exception:
            pass  # the same input runs again in the timed loop and is counted there

    imports = import_seconds(env)
    here = SpeedProbe(False)
    cases, generation = at_reference(here, lambda: workload.generate(seed))
    state, preparation = at_reference(here, lambda: workload.prepare(cases, workdir))
    _, warm = at_reference(SpeedProbe(workload.runs_in_children), warm_up)
    return imports + generation + preparation + warm, cases, state


def failures(workload, state, expected, records: list[Record]) -> list[str]:
    out = []
    for r in records:
        error = r.error
        if error is None:
            try:
                workload.check(state, expected, r.slot, r.result)
            except Exception as exc:  # any exception from a check is a failed op
                error = exc
        if error is not None:
            out.append(f"slot {r.slot}: {type(error).__name__}: {error}")
    return out


def percentiles(walls: list[float]) -> tuple[float, float, int]:
    """Median and 90th percentile, and the number of samples above the latter."""
    if len(walls) < 2:
        return walls[0], walls[0], 0
    p90 = statistics.quantiles(walls, n=10, method="inclusive")[8]
    return statistics.median(walls), p90, sum(1 for w in walls if w > p90)


def at_reference_speed(records: list[Record], probe: SpeedProbe) -> list[tuple[float, float]]:
    """(wall, cpu) of each op, scaled by the two speed samples taken before
    it and the two taken after it."""
    out = []
    for r in records:
        factor = probe.factor(max(r.sample - 1, 0), r.sample + 3)
        out.append((r.wall * factor, r.cpu * factor))
    return out


def end_to_end(records: list[Record], probe: SpeedProbe, setups: list[float], usage) -> tuple:
    """The end-to-end metrics at reference speed, and the same times as timed."""

    def summary(times):
        walls = [w for w, _ in times]
        p50, p90, beyond = percentiles(walls)
        return beyond, {
            "ops_per_s": len(times) / sum(walls),
            "latency_p50_ms": p50 * 1000,
            "latency_p90_ms": p90 * 1000,
            "cpu_ms_per_op": sum(c for _, c in times) / len(times) * 1000,
        }

    beyond, values = summary(at_reference_speed(records, probe))
    _, timed = summary([(r.wall, r.cpu) for r in records])
    values["setup_s"] = statistics.median(setups)
    values["peak_rss_mb"] = resource.getrusage(usage).ru_maxrss / 1024
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    notes = {
        "samples": len(records),
        "samples_above_p90": beyond,
        "speed_factor": round(probe.factor(), 4),
        "as_timed": {k: round(v, 4) for k, v in timed.items()},
    }
    return metrics, notes


def run_workload(workload, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    from tracing import Tracer, layer_metrics
    from workloads import cli_env

    env = cli_env(ROOT)
    setups, first_cases = [], None
    for _ in range(1 if trace else SETUP_REPEATS):
        elapsed, cases, state = set_up(workload, seed, workdir, env)
        setups.append(elapsed)
        if first_cases is not None and cases != first_cases:
            raise RuntimeError("input generation is not deterministic")
        first_cases = cases
    expected = workload.reference(state)
    slots = len(state)

    def plain(slot, i):
        return workload.op(state, slot)

    probe = SpeedProbe(workload.runs_in_children)
    if not trace:
        records = closed_loop(plain, slots, seconds, probe)
        failed = failures(workload, state, expected, records)
        usage = resource.RUSAGE_CHILDREN if workload.runs_in_children else resource.RUSAGE_SELF
        metrics, notes = end_to_end(records, probe, setups, usage)
    else:
        tracer = Tracer()
        traced_probe = SpeedProbe(workload.runs_in_children)

        def traced(slot, i):
            return workload.traced_op(state, slot, tracer, i)

        untraced_records = closed_loop(plain, slots, seconds / 2, probe)
        with tracer:
            traced_records = closed_loop(traced, slots, seconds / 2, traced_probe)
        records = untraced_records + traced_records
        failed = failures(workload, state, expected, records)
        # Both halves start at slot 0, so their common prefix is the same ops.
        common = min(len(untraced_records), len(traced_records))
        base = sum(w for w, _ in at_reference_speed(untraced_records[:common], probe))
        slow = sum(w for w, _ in at_reference_speed(traced_records[:common], traced_probe))
        metrics = layer_metrics(tracer, len(traced_records), traced_probe.factor())
        metrics["trace.overhead_pct"] = {"value": (slow / base - 1) * 100, "unit": "%"}
        OUT_DIR.mkdir(exist_ok=True)
        spans_file = OUT_DIR / f"spans-{workload.name}-seed{seed}.json"
        tracer.dump(spans_file)
        notes = {
            "samples": len(traced_records),
            "speed_factor": round(traced_probe.factor(), 4),
            "spans": str(spans_file.relative_to(ROOT)),
        }
    return {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": metrics,
        "notes": notes,
        "failures": failed[:5],
    }


def print_report(name: str, result: dict) -> None:
    print(f"[{name}]")
    for metric, m in result["metrics"].items():
        print(f"  {metric:32s} {m['value']:14.4f} {m['unit']}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"  {'error_rate':32s} {failed / attempted:14.4f} ratio ({failed}/{attempted})")
    for key, value in result["notes"].items():
        print(f"  {key:32s} {value}")
    for line in result["failures"]:
        print(f"  FAILED {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "covergame" / "__init__.py").is_file():
        print(f"error: no covergame sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_each(list(WORKLOADS), args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")

    print(
        f"# python {sys.version.split()[0]}, nproc {os.cpu_count()}, seed {args.seed}, "
        f"{args.seconds:g} s, trace {args.trace}"
    )
    workdir = OUT_DIR / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = run_workload(
            WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print_report(args.workload, result)
    summary = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def run_each(names: list[str], args) -> int:
    """Run each workload in a process of its own, one after another, so
    that its peak RSS and its imports are its own. Prints their reports
    and one result whose metrics are named ``<workload>.<metric>``."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        argv = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds)]
        proc = subprocess.run(
            [sys.executable, __file__, *argv, "--trace", str(args.trace)],
            stdout=subprocess.PIPE,
            text=True,
        )
        *report, last = proc.stdout.splitlines() or [""]
        print("\n".join(report))
        if proc.returncode not in (0, 1) or not last.startswith("{"):
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 2
        result = json.loads(last)
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        summary["metrics"].update({f"{name}.{k}": m for k, m in result["metrics"].items()})
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""Run every pinned cli-io input once per seed and check its output.

Each of the 20 inputs of seeds 1 and 97 runs as one covergame process; its
answer is checked against the benchmark's references and the sha256 of its
stdout against the pin in perfbench/cli_outputs.json. Exits 1 on any
failure. Run from the repository root:

    PYTHONPATH=src:perfbench python3 .github/scripts/check_pinned_cli_outputs.py
"""

import sys
import tempfile
from pathlib import Path

import run
from workloads import WORKLOADS

w = WORKLOADS["cli-io"]
bad = 0
for seed in (1, 97):
    with tempfile.TemporaryDirectory() as tmp:
        calls = w.prepare(w.generate(seed), Path(tmp))
        expected = w.reference(calls)
        records = []
        for slot in range(len(calls)):
            try:
                result, error = w.op(calls, slot), None
            except Exception as exc:
                result, error = None, exc
            records.append(run.Record(slot, 0.0, 0.0, result, error, 0))
        failed = run.failures(w, calls, expected, records)
        failed += [f"slot {i}: no pinned output" for i, c in enumerate(calls) if c.pinned is None]
    print(f"seed {seed}: {len(records)} outputs checked, {len(failed)} failed")
    print(*failed, sep="\n")
    bad += len(failed)
sys.exit(1 if bad else 0)

"""Record the sha256 of every cli-io output for the default and held-out
seeds in ``cli_outputs.json``, so that later runs on those inputs must
print the same bytes.

    python3 perfbench/pin_cli_outputs.py

Each output is first checked against the benchmark's own references; the
file is written only if every one passes. Rerun it only when a change to
the CLI's output is intended.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
from workloads import PINNED_OUTPUTS, WORKLOADS, case_digest  # noqa: E402


def main() -> int:
    w = WORKLOADS["cli-io"]
    pins = {}
    run.OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="pin-", dir=run.OUT_DIR))
    try:
        for seed in (run.DEFAULT_SEED, run.HELD_OUT_SEED):
            calls = [dataclasses.replace(c, pinned=None) for c in w.prepare(w.generate(seed), workdir)]
            expected = w.reference(calls)
            for slot, call in enumerate(calls):
                result = w.op(calls, slot)
                w.check(calls, expected, slot, result)
                pins[case_digest(call.case)] = hashlib.sha256(result[1]).hexdigest()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    about = (
        "sha256 of the stdout of each cli-io command, keyed by the sha256 of its input "
        f"case, for seeds {run.DEFAULT_SEED} and {run.HELD_OUT_SEED}; written by pin_cli_outputs.py"
    )
    text = json.dumps({"about": about, "stdout_sha256": pins}, indent=1, sort_keys=True)
    PINNED_OUTPUTS.write_text(text + "\n", encoding="utf-8")
    print(f"pinned {len(pins)} outputs in {PINNED_OUTPUTS.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

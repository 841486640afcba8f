"""Traced entry for one covergame CLI process, used by the traced cli-io run.

Usage: python cli_child.py SPAWN_TIME SPANS_OUT [covergame arguments...]

SPAWN_TIME is the parent's ``time.perf_counter()`` just before it spawned
this process; on Linux that clock is CLOCK_MONOTONIC, which every process
shares. The ``cli.startup`` span runs from SPAWN_TIME to the moment the
CLI module is imported and ``main`` can be entered. ``main`` then runs with
every layer traced, the spans go to SPANS_OUT, and the process exits with
``main``'s code, its stdout untouched.
"""

import sys
from pathlib import Path
from time import perf_counter

import covergame.cli

entered = perf_counter()

from tracing import STARTUP_SPAN, Tracer  # noqa: E402  (after the startup clock)


def main() -> int:
    spawn, out, argv = float(sys.argv[1]), Path(sys.argv[2]), sys.argv[3:]
    tracer = Tracer()
    tracer.spans.append([STARTUP_SPAN, spawn, entered, None, None])
    with tracer:
        code = covergame.cli.main(argv)
    sys.stdout.flush()
    tracer.dump(out)
    return code


if __name__ == "__main__":
    sys.exit(main())

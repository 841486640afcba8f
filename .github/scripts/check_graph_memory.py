"""Check the memory that parsed coalition-cost graphs hold.

Parses the 2400 graphs of the coalition-cost workload on seed 97, as its
set-up does, and prints the bytes that tracemalloc still sees per graph
afterwards (the query tuples and the list included). Exits 1 above
LIMIT. That workload's peak RSS is its set-up peak, so every byte a graph
keeps shows there. Run from the repository root:

    PYTHONPATH=src:perfbench python3 .github/scripts/check_graph_memory.py
"""

import gc
import sys
import tempfile
import tracemalloc
from pathlib import Path

from workloads import WORKLOADS

LIMIT = 4000  # bytes per graph; about 3.2 kB on Python 3.11.7

w = WORKLOADS["coalition-cost"]
cases = w.generate(97)
gc.collect()
tracemalloc.start()
before = tracemalloc.get_traced_memory()[0]
with tempfile.TemporaryDirectory() as tmp:
    queries = w.prepare(cases, Path(tmp))
gc.collect()
per_graph = (tracemalloc.get_traced_memory()[0] - before) / len(queries)
tracemalloc.stop()
print(f"coalition-cost seed 97: {len(queries)} graphs, {per_graph:.0f} B held per graph")
print(f"limit {LIMIT} B: {'exceeded' if per_graph > LIMIT else 'held'}")
sys.exit(1 if per_graph > LIMIT else 0)

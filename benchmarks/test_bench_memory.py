"""Full-size memory budget: Coauthor-CS at scale 1.0 must fit in 600 MB.

A fresh Python process loads the Coauthor-CS twin at full size (18,333
nodes, 6,805 bag-of-words features), splits it into 10 or 50 Louvain
parties (Table 5's largest M) and trains 2 FedOMD rounds; the test then
reads the child's high-water RSS (``ru_maxrss``).  A dense copy of the
features alone is 998 MB, so the budget fails loudly if any step of the
FedOMD path materializes it.  At M=50 it also holds the per-party model
state: a party that kept every row of the 6,805-row input weight (its
weight, gradient and Adam moments, about 3.5 MB each) would need about
990 MB.
The child is a separate process so the measurement covers exactly one
load, partition and training run, and nothing the test session did
before.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_memory.py -q -s
"""

import json
import os
import subprocess
import sys

import pytest

MEMORY_BUDGET_MB = 600.0
DATASET = "coauthor-cs"
ROUNDS = 2


def child(parties: int) -> str:
    """The measured program: load, partition into ``parties``, train."""
    return f"""
import json, resource
import numpy as np
from repro.core import FedOMDConfig, FedOMDTrainer
from repro.graphs import load_dataset, louvain_partition

graph = load_dataset({DATASET!r}, seed=0, scale=1.0)
parts = louvain_partition(graph, {parties}, np.random.default_rng(0)).parts
del graph
history = FedOMDTrainer(
    parts, FedOMDConfig(max_rounds={ROUNDS}, patience={ROUNDS + 1}), seed=0
).run()
print(json.dumps({{
    "rounds": len(history),
    "x_mb": sum(p.x.nbytes for p in parts) / 1e6,
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
}}))
"""


@pytest.mark.parametrize("parties", [10, 50])
def test_full_size_coauthor_cs_fits_memory_budget(parties):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run(
        [sys.executable, "-c", child(parties)],
        capture_output=True, text=True, env=env, timeout=900,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"\nfull-size {DATASET}, M={parties}, {ROUNDS} rounds: {result}")
    assert result["rounds"] == ROUNDS
    assert result["peak_rss_mb"] <= MEMORY_BUDGET_MB, (
        f"peak RSS {result['peak_rss_mb']:.0f} MB exceeds the "
        f"{MEMORY_BUDGET_MB:.0f} MB budget for full-size {DATASET}"
    )

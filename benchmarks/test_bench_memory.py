"""Full-size memory budget: Coauthor-CS at scale 1.0 must fit in 600 MB.

A fresh Python process loads the Coauthor-CS twin at full size (18,333
nodes, 6,805 bag-of-words features), splits it into 10 Louvain parties
and trains 2 FedOMD rounds; the test then reads the child's high-water
RSS (``ru_maxrss``).  A dense copy of the features alone is 998 MB, so
the budget fails loudly if any step of the FedOMD path materializes it.
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

MEMORY_BUDGET_MB = 600.0
DATASET = "coauthor-cs"
PARTIES = 10
ROUNDS = 2

CHILD = f"""
import json, resource
import numpy as np
from repro.core import FedOMDConfig, FedOMDTrainer
from repro.graphs import load_dataset, louvain_partition

graph = load_dataset({DATASET!r}, seed=0, scale=1.0)
parts = louvain_partition(graph, {PARTIES}, np.random.default_rng(0)).parts
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


def test_full_size_coauthor_cs_fits_memory_budget():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD], capture_output=True, text=True, env=env, timeout=900
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"\nfull-size {DATASET}, M={PARTIES}, {ROUNDS} rounds: {result}")
    assert result["rounds"] == ROUNDS
    assert result["peak_rss_mb"] <= MEMORY_BUDGET_MB, (
        f"peak RSS {result['peak_rss_mb']:.0f} MB exceeds the "
        f"{MEMORY_BUDGET_MB:.0f} MB budget for full-size {DATASET}"
    )

"""Full-size memory budget: Coauthor-CS at scale 1.0 must fit in 600 MB.

A fresh Python process loads the Coauthor-CS twin at full size (18,333
nodes, 6,805 bag-of-words features), splits it into 10 or 50 Louvain
parties (Table 5's largest M) and trains 2 rounds; the test then reads
the child's high-water RSS (``ru_maxrss``).  A dense copy of the
features alone is 998 MB, so the budget fails loudly if any step
materializes it.  Three legs train FedOMD.  At M=50 it also holds the
per-party model state: a party that kept every row of the 6,805-row
input weight (its weight, gradient and Adam moments, about 3.5 MB
each) would need about 990 MB.  The third runs M=50 with a trainer
checkpoint saved after every round, so the checkpoint write's
transient arrays count too.  The fourth and fifth train the FedGCN
baseline at M=10 and M=50: its GCN reads the same sparse features, but
each party keeps every input-weight row, which fits the budget at M=50
only in float32 (about 420 MB; 705 MB in float64).
The child is a separate process so the measurement covers exactly one
load, partition and training run, and nothing the test session did
before.  It also reports the wall seconds of its set-up phases
(``load_s``, ``partition_s``, ``trainer_s``: the trainer's construction),
which are printed, not gated.  The three FedOMD legs also fail if the
child imported ``scipy.sparse`` (about 14 MB): a run needs only its
compiled kernel.

Measured on a 2-vCPU Xeon KVM guest (numpy 2.4.6), training in
float32: 151 MB at M=10, 153 MB at M=50, 170 MB at M=50 with
checkpoints, and 151 and 407 MB for FedGCN at M=10 and M=50.  While
a run imported ``scipy.sparse`` they read 169, 169, 187, 168 and 414
MB.  Before
the input weights' gradients came from one small pool and OrthoGCN's
recorded input layer kept only its output and mask, they read 185,
201, 219, 169 and 455 MB.  In float64 the legs read 278, 321, 359,
252 and 705 MB (before the pool).  Before the
best-validation round was kept as the best global model instead of a
copy of every party's weights, the first three legs read 304, 366
and 488 MB; before a checkpoint wrote Adam's live moment
buffers instead of copies, the third read 443 MB; and before every
model read the sparse features, FedGCN at M=10 read 1,196 MB.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_memory.py -q -s
"""

import json
import os
import subprocess
import sys
from typing import Optional

import pytest

MEMORY_BUDGET_MB = 600.0
DATASET = "coauthor-cs"
ROUNDS = 2
# The checkpointing leg runs at Table 5's largest M, where the write
# holds the most per-party arrays.
CHECKPOINT_PARTIES = 50


#: The import that binds ``Trainer`` and ``Config`` for each measured trainer.
TRAINERS = {
    "fedomd": "from repro.core import FedOMDConfig as Config, FedOMDTrainer as Trainer",
    "fedgcn": "from repro.baselines import FedGCNTrainer as Trainer\n"
    "from repro.federated import TrainerConfig as Config",
}


def child(parties: int, trainer: str = "fedomd", checkpoint_dir: Optional[str] = None) -> str:
    """The measured program: load, partition into ``parties``, train.

    ``trainer`` names a :data:`TRAINERS` entry.  With ``checkpoint_dir``
    the run also saves a trainer checkpoint there after every round.
    """
    checkpoint = (
        f", checkpoint_every=1, checkpoint_dir={checkpoint_dir!r}" if checkpoint_dir else ""
    )
    return f"""
import json, resource, sys, time
import numpy as np
{TRAINERS[trainer]}
from repro.graphs import load_dataset, louvain_partition

t0 = time.perf_counter()
graph = load_dataset({DATASET!r}, seed=0, scale=1.0)
t1 = time.perf_counter()
parts = louvain_partition(graph, {parties}, np.random.default_rng(0)).parts
t2 = time.perf_counter()
del graph
trainer = Trainer(parts, Config(max_rounds={ROUNDS}, patience={ROUNDS + 1}{checkpoint}), seed=0)
t3 = time.perf_counter()
history = trainer.run()
print(json.dumps({{
    "rounds": len(history),
    "load_s": round(t1 - t0, 3),
    "partition_s": round(t2 - t1, 3),
    "trainer_s": round(t3 - t2, 3),
    "x_mb": sum(p.x.nbytes for p in parts) / 1e6,
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    "scipy_sparse": "scipy.sparse" in sys.modules,
}}))
"""


def measure(parties: int, trainer: str = "fedomd", checkpoint_dir: Optional[str] = None) -> dict:
    """Run :func:`child` in a fresh process and return its result line."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run(
        [sys.executable, "-c", child(parties, trainer, checkpoint_dir)],
        capture_output=True, text=True, env=env, timeout=900,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def assert_within_budget(result: dict, what: str) -> None:
    print(f"\n{what}: {result}")
    assert result["rounds"] == ROUNDS
    assert result["peak_rss_mb"] <= MEMORY_BUDGET_MB, (
        f"peak RSS {result['peak_rss_mb']:.0f} MB exceeds the "
        f"{MEMORY_BUDGET_MB:.0f} MB budget for {what}"
    )


def assert_fedomd_within_budget(result: dict, what: str) -> None:
    """A FedOMD leg also must not import ``scipy.sparse`` (about 14 MB)."""
    assert_within_budget(result, what)
    assert not result["scipy_sparse"], f"{what} imported scipy.sparse"


@pytest.mark.parametrize("parties", [10, 50])
def test_full_size_coauthor_cs_fits_memory_budget(parties):
    result = measure(parties)
    assert_fedomd_within_budget(result, f"full-size {DATASET}, M={parties}, {ROUNDS} rounds")


def test_full_size_coauthor_cs_checkpointing_fits_memory_budget(tmp_path):
    parties = CHECKPOINT_PARTIES
    result = measure(parties, checkpoint_dir=str(tmp_path))
    assert os.path.exists(os.path.join(tmp_path, "trainer.ckpt.npz"))
    assert_fedomd_within_budget(
        result, f"full-size {DATASET}, M={parties}, {ROUNDS} rounds, a checkpoint each round"
    )


@pytest.mark.parametrize("parties", [10, 50])
def test_full_size_coauthor_cs_fedgcn_fits_memory_budget(parties):
    result = measure(parties, "fedgcn")
    assert_within_budget(result, f"full-size {DATASET}, FedGCN, M={parties}, {ROUNDS} rounds")

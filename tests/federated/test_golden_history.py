"""Golden-history regression: the exact FedOMD trajectory is pinned.

A tiny but fully representative run — 3 Louvain parties of the Cora
twin, 3 FedOMD rounds, seed 0 — whose per-round metrics are hashed and
checked against a digest recorded at the time this test was written.
Any change to initialization, moment exchange, CMD/ortho losses, FedAvg
or the round loop that shifts a metric by more than one part in 10^10
flips the digest and fails here, turning silent numeric drift into a
loud diff.

Metrics are hashed *formatted to 10 significant digits*, not as raw
bytes: real regressions move metrics by far more than 1e-10 relative,
while the formatting absorbs sub-ulp differences between BLAS builds.

The determinism matrix replays the same run across every operational
axis that must not move a bit: engine (barrier, async at quorum 1.0) ×
executor workers (1, 4) × instrumentation (plain, runtime sanitizers
armed, inside a ``ProfileSession``).  Every cell must give the golden
digest.  A subprocess leg crosses the BLAS-thread axis with the engine
axis: OpenBLAS reads ``OPENBLAS_NUM_THREADS`` once at load time, so
each (engine, thread count) pair runs the golden history in a fresh
interpreter.  ``run()`` holds OpenBLAS at one thread, so one more leg
disables that cap to keep two-thread GEMMs under the digest.

If a change is *intended* to alter the trajectory (a new default, a
fixed bug in the math), re-record GOLDEN_DIGEST by running the helper
at the bottom of this file and explain the change in the commit.
"""

import contextlib
import hashlib
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import FedOMDConfig, FedOMDTrainer
from repro.graphs import load_dataset, louvain_partition

GOLDEN_DIGEST = "27998bfd3a04088291d7b2ad8d421dddd3e29222ce11d519282218be2849a38b"


def golden_history(**overrides):
    g = load_dataset("cora", seed=0, scale=0.12)
    parts = louvain_partition(g, 3, np.random.default_rng(0)).parts
    cfg = FedOMDConfig(max_rounds=3, patience=50, hidden=16, **overrides)
    return FedOMDTrainer(parts, cfg, seed=0).run()


def digest(history) -> str:
    lines = []
    for rec in history.records:
        metrics = rec.metrics_dict()
        lines.append(
            ",".join(f"{key}={float(metrics[key]):.10e}" for key in sorted(metrics))
        )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_golden_trajectory_unchanged():
    assert digest(golden_history()) == GOLDEN_DIGEST


def test_golden_run_is_reproducible():
    # The digest is only meaningful if the run itself is deterministic.
    assert digest(golden_history()) == digest(golden_history())


ENGINES = {"barrier": {}, "async": {"engine": "async", "quorum": 1.0}}
MODES = ("plain", "sanitized", "profiled")


@pytest.mark.parametrize(
    "engine,num_workers,mode",
    list(itertools.product(ENGINES, (1, 4), MODES)),
    ids=lambda v: f"w{v}" if isinstance(v, int) else v,
)
def test_golden_digest_matrix(engine, num_workers, mode):
    from repro.obs import ProfileSession

    overrides = dict(ENGINES[engine], num_workers=num_workers)
    if mode == "sanitized":
        overrides["sanitize"] = True
    session = ProfileSession() if mode == "profiled" else contextlib.nullcontext()
    with session:
        history = golden_history(**overrides)
    assert digest(history) == GOLDEN_DIGEST


@pytest.mark.parametrize(
    "engine,threads,cap",
    [
        pytest.param(engine, threads, True, id=f"{engine}-{threads}")
        for engine, threads in itertools.product(ENGINES, ("1", "2"))
    ]
    # run() holds OpenBLAS at one thread, so the legs above train at 1
    # thread; this leg disables the cap to keep 2-thread GEMMs covered.
    + [pytest.param("barrier", "2", False, id="barrier-2-uncapped")],
)
def test_golden_digest_across_blas_threads(engine, threads, cap):
    root = Path(__file__).resolve().parents[2]
    env = dict(
        os.environ,
        OPENBLAS_NUM_THREADS=threads,
        PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]),
    )
    uncap = "" if cap else (
        "import repro.federated.executor as ex\n"
        "ex.openblas_threads_api = lambda: None\n"
    )
    code = uncap + (
        "from tests.federated.test_golden_history import digest, golden_history\n"
        f"print(digest(golden_history(**{ENGINES[engine]!r})))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=root, env=env,
        capture_output=True, text=True, check=True,
    )
    assert proc.stdout.strip() == GOLDEN_DIGEST


if __name__ == "__main__":  # pragma: no cover — digest re-recording helper
    print(digest(golden_history()))

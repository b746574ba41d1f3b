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
armed, inside a ``ProfileSession``), all in the default float32.  Every cell must give the golden
digest, and the bytes of its final parameters (the global model and
every client's) must equal those of the plain barrier 1-worker cell
run in the same process: the digest's 10 digits cannot see a changed
summation order, raw bytes can.  A subprocess leg crosses the
BLAS-thread axis with the engine axis: OpenBLAS reads
``OPENBLAS_NUM_THREADS`` once at load time, so each (engine, thread
count) pair runs the golden history in a fresh interpreter, and its
parameters are compared with the same in-process reference.  ``run()``
holds OpenBLAS at one thread, so one more leg disables that cap to keep
two-thread GEMMs under the digest.  The reference is computed, not
pinned: raw bytes may differ between BLAS builds.

If a change is *intended* to alter the trajectory (a new default, a
fixed bug in the math), re-record GOLDEN_DIGEST by running the helper
at the bottom of this file and explain the change in the commit.
"""

import contextlib
import functools
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

# Re-pinned when training switched to float32 (load_dataset's features
# are float32, the paper's PyTorch default, and a run trains in its
# features' dtype): operators, parameters, gradients and Adam's moments
# are float32, while the uploaded statistics stay float64.
# Every metric moves at float32 rounding.  The fedomd-accuracy gate was
# re-run on the float32 tree; see CHANGES.md and EXPERIMENTS.md.
GOLDEN_DIGEST = "309e23791337b220d58acc0ba858dad9bb6613555ae8cf465fc19e79d7f7e2fb"
#: The same run in float64: the digest pinned before the float32 switch,
#: which the float64 path must keep bit for bit.
FLOAT64_DIGEST = "e5172b3437956aa62a5362b6539f97422c0aed432e5a06ff93b9da1b3fd4cfff"


def golden_trainer(dtype=np.float32, **overrides):
    g = load_dataset("cora", seed=0, scale=0.12, dtype=dtype)
    parts = louvain_partition(g, 3, np.random.default_rng(0)).parts
    cfg = FedOMDConfig(max_rounds=3, patience=50, hidden=16, **overrides)
    return FedOMDTrainer(parts, cfg, seed=0)


def golden_history(**overrides):
    return golden_trainer(**overrides).run()


def state_hash(trainer) -> str:
    """sha256 of the raw bytes of the global model and every client's parameters."""
    h = hashlib.sha256()
    named = [sorted(trainer.global_state.items())]
    named += [c.model.named_parameters() for c in trainer.clients]
    for params in named:
        for name, value in params:
            h.update(name.encode())
            h.update(np.ascontiguousarray(getattr(value, "data", value)).tobytes())
    return h.hexdigest()


def golden_run(**overrides):
    """(metrics digest, final-parameter hash) of the golden run."""
    trainer = golden_trainer(**overrides)
    history = trainer.run()
    return digest(history), state_hash(trainer)


@functools.lru_cache(maxsize=None)
def reference_state_hash() -> str:
    """Final-parameter hash of the plain barrier 1-worker cell, in this process."""
    return golden_run()[1]


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


def test_float64_path_keeps_its_digest():
    assert digest(golden_history(dtype=np.float64)) == FLOAT64_DIGEST


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
        metrics, params = golden_run(**overrides)
    assert metrics == GOLDEN_DIGEST
    assert params == reference_state_hash()


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
        "from tests.federated.test_golden_history import golden_run\n"
        f"print(*golden_run(**{ENGINES[engine]!r}))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=root, env=env,
        capture_output=True, text=True, check=True,
    )
    metrics, params = proc.stdout.split()
    assert metrics == GOLDEN_DIGEST
    assert params == reference_state_hash()


if __name__ == "__main__":  # pragma: no cover — digest re-recording helper
    print(digest(golden_history()))

"""The three FedOMD workloads and one instrumented run of a workload.

Every workload uses the paper defaults of ``FedOMDConfig`` (hidden 64,
two hidden layers, moment orders 2-5, alpha 0.0005, beta 0.01, lr 0.02,
evaluation every round) with patience above the round count, so no run
stops early.  Why each workload exists is written in README.md.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import time
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from fedbench.probes import Probe
from fedbench.tracer import Tracer

#: Rounds run before timing starts.  Round 0 builds the CSR caches and
#: the async engine needs a couple of rounds to fill its in-flight set.
WARM_ROUNDS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    scale: float
    parties: int
    #: Timed rounds per second of ``--seconds`` (about the round rate on a
    #: 2-CPU x86 box).  The round count depends on ``--seconds`` only, so
    #: a seed always trains the same trajectory whatever the machine load.
    rounds_per_second: float
    engine: str = "barrier"
    quorum: float = 1.0
    num_workers: int = 1
    telemetry: bool = False
    #: inject the async load test's fault plan on the virtual clock
    loadtest_faults: bool = False

    def timed_rounds(self, seconds: float) -> int:
        return max(5, int(round(seconds * self.rounds_per_second)))


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("cora-m5", "cora", 1.0, 5, rounds_per_second=2.6),
        Workload("cs-m10", "coauthor-cs", 0.25, 10, rounds_per_second=0.9),
        Workload(
            "photo-m20-async",
            "photo",
            0.5,
            20,
            rounds_per_second=11.0,
            engine="async",
            quorum=0.6,
            num_workers=2,
            telemetry=True,
            loadtest_faults=True,
        ),
    )
}


def derive_seeds(seed: int) -> Dict[str, int]:
    """Dataset, partition, trainer and fault seeds from the one ``--seed``."""
    state = np.random.SeedSequence(seed).generate_state(4)
    return dict(zip(("dataset", "partition", "trainer", "faults"), (int(s) for s in state)))


def history_digest(records) -> str:
    """Bitwise digest of the per-round loss and accuracies."""
    h = hashlib.sha256()
    for r in records:
        for v in (r.train_loss, r.val_acc, r.test_acc):
            h.update(float(v).hex().encode())
        h.update(b";")
    return h.hexdigest()


@dataclass
class RunResult:
    records: list
    setup_s: float
    load_s: float
    partition_s: float
    #: wall seconds of every timed round, in order
    round_walls: List[float]
    #: communicator traffic over the timed rounds
    comm: object
    #: probe counts summed over the timed rounds
    counts: Dict[str, int]
    #: fates of the client updates dispatched in the timed rounds
    updates: Dict[str, int]
    probe: Probe
    x_mb: float
    final_test_acc: float


def run_once(
    w: Workload,
    seed: int,
    rounds: int,
    tracer: Optional[Tracer] = None,
    final_acc: bool = False,
) -> RunResult:
    """Set up ``w`` from ``seed`` and train ``rounds`` rounds under a probe.

    Rounds ``WARM_ROUNDS`` and later are timed; set-up time runs from
    the start of twin generation to the first timed ``begin_round``.
    """
    from repro.core import FedOMDConfig, FedOMDTrainer
    from repro.experiments.configs import LOADTEST_FAULTS
    from repro.federated import FaultPlan
    from repro.graphs import load_dataset, louvain_partition
    from repro.obs import TelemetrySession

    if rounds <= WARM_ROUNDS:
        raise ValueError(f"need more than {WARM_ROUNDS} rounds to end a set-up, got {rounds}")
    seeds = derive_seeds(seed)
    probe = Probe(tracer, timed_from=WARM_ROUNDS)
    t0 = time.perf_counter()
    graph = load_dataset(w.dataset, seed=seeds["dataset"], scale=w.scale)
    t1 = time.perf_counter()
    parts = louvain_partition(graph, w.parties, np.random.default_rng(seeds["partition"])).parts
    t2 = time.perf_counter()
    del graph
    faults = (
        FaultPlan.from_spec(LOADTEST_FAULTS, seed=seeds["faults"]) if w.loadtest_faults else None
    )
    cfg = FedOMDConfig(
        max_rounds=rounds,
        patience=rounds + 1,
        engine=w.engine,
        quorum=w.quorum,
        num_workers=w.num_workers,
    )
    session = TelemetrySession() if w.telemetry else contextlib.nullcontext()
    with session, probe:
        trainer = FedOMDTrainer(parts, cfg, seed=seeds["trainer"], faults=faults)
        history = trainer.run()
        t_end = time.perf_counter()
    acc = trainer.final_test_accuracy() if final_acc else float("nan")
    comm_end = trainer.comm.snapshot()
    bounds = probe.round_marks[WARM_ROUNDS:] + [t_end]
    counts: Counter = Counter()
    for r, per_round in probe.counts.items():
        if r >= WARM_ROUNDS:
            counts.update(per_round)
    result = RunResult(
        records=list(history.records),
        setup_s=bounds[0] - t0,
        load_s=t1 - t0,
        partition_s=t2 - t1,
        round_walls=[b - a for a, b in zip(bounds, bounds[1:])],
        comm=comm_end - probe.comm_at_timed,
        counts=counts,
        updates=probe.updates.totals(WARM_ROUNDS),
        probe=probe,
        x_mb=sum(p.x.nbytes for p in parts) / 1e6,
        final_test_acc=acc,
    )
    del trainer, parts, history, session
    gc.collect()
    return result

"""Load test: up to 1000 simulated clients with churn on the async engine.

``python -m repro.experiments loadtest --mode full`` drives 1000 tiny
SBM parties through two federated runs under the same 20%-straggler
fault plan and the same seeded latency model:

* the **barrier-equivalent** leg — the async engine at ``quorum=1.0``,
  which reproduces barrier aggregation semantics exactly (proven
  bitwise in the golden-equivalence test) while timing the round the
  way a real parallel deployment would: the round ends when the last
  report arrives.  A 2-second straggler therefore costs the whole
  round 2 virtual seconds.
* the **async** leg — ``quorum=0.8``: the server aggregates when 80%
  of the round's dispatched clients have reported; stragglers fold
  into later rounds staleness-weighted.

Both runs advance a :class:`~repro.federated.clock.VirtualClock`, so
round throughput (rounds per virtual second) is deterministic for a
given seed — machine load cannot flake the ≥2× acceptance gate.
:func:`measure` returns the speedup and both legs' telemetry;
:func:`run` renders them as the experiment table, and
``benchmarks/test_bench_async.py`` gates them against the committed
``BENCH_async.json``.

Clients train 2-layer GCNs on 16-node graphs: the point is scheduler
and aggregation load — thousands of dispatches, arrivals, staleness
corrections — not GNN math.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

import numpy as np

from repro.experiments.configs import (
    LOADTEST_CLASSES,
    LOADTEST_CLIENTS,
    LOADTEST_FAULTS,
    LOADTEST_FEATURES,
    LOADTEST_HIDDEN,
    LOADTEST_NODES_PER_CLIENT,
    LOADTEST_QUORUM,
    LOADTEST_ROUNDS,
)
from repro.experiments.registry import register
from repro.experiments.runner import ExperimentResult
from repro.federated import FaultPlan, FederatedTrainer, TrainerConfig
from repro.graphs import Graph, class_conditional_features, dc_sbm, semi_supervised_split
from repro.obs import TelemetrySession, get_registry


def make_parties(
    num_clients: int, seed: int, nodes: int = LOADTEST_NODES_PER_CLIENT
) -> List[Graph]:
    """One tiny two-block SBM graph per client, seeded per client id."""
    parts: List[Graph] = []
    half = nodes // 2
    for cid in range(num_clients):
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0x10AD, cid)))
        adj, labels = dc_sbm([half, nodes - half], 0.6, 0.1, rng)
        x = class_conditional_features(
            labels, LOADTEST_FEATURES, rng, words_per_node=4, class_signal=0.9
        )
        g = Graph(
            x=x.astype(np.float32), adj=adj, y=labels, num_classes=LOADTEST_CLASSES,
            name=f"party{cid}",
        )
        # Generous ratios: 16-node graphs need a few labels per split.
        semi_supervised_split(g, rng, train_ratio=0.25, val_ratio=0.25, test_ratio=0.25)
        parts.append(g)
    return parts


def _run_leg(
    parts: List[Graph],
    plan: FaultPlan,
    quorum: float,
    rounds: int,
    seed: int,
) -> Dict[str, float]:
    """One full run; returns its virtual-time and fault telemetry."""
    cfg = TrainerConfig(
        max_rounds=rounds,
        patience=10 * rounds,  # never early-stop: both legs time the same rounds
        hidden=LOADTEST_HIDDEN,
        engine="async",
        quorum=quorum,
    )
    trainer = FederatedTrainer(parts, cfg, seed=seed, faults=plan)
    t0 = time.perf_counter()
    history = trainer.run()
    duration_wall = time.perf_counter() - t0
    reg = get_registry()
    elapsed_vs = trainer.clock.elapsed
    return {
        "quorum": quorum,
        "rounds": len(history),
        "virtual_time": elapsed_vs,
        "throughput_rounds_per_vsec": len(history) / elapsed_vs if elapsed_vs else 0.0,
        "late_updates": int(reg.counter("async.late_updates").value),
        "discarded_stale": int(reg.counter("async.discarded_stale").value),
        "final_test_acc": history.final_test_accuracy(),
        "duration_wall": duration_wall,
    }


def measure(
    mode: str,
    seed: int = 0,
    faults: Optional[str] = None,
    fault_seed: int = 0,
    clients: Optional[int] = None,
) -> dict:
    """Both legs on the same parties and fault plan, plus their speedup."""
    num_clients = clients if clients is not None else LOADTEST_CLIENTS[mode]
    rounds = LOADTEST_ROUNDS[mode]
    plan = FaultPlan.from_spec(faults or LOADTEST_FAULTS, seed=fault_seed)
    parts = make_parties(num_clients, seed)

    legs: Dict[str, Dict[str, float]] = {}
    for leg_name, quorum in (("barrier", 1.0), ("async", LOADTEST_QUORUM)):
        # Each leg gets a private registry so fault/staleness counters
        # don't bleed between them (or into a CLI telemetry session).
        session = TelemetrySession(experiment=f"loadtest/{leg_name}").install()
        try:
            legs[leg_name] = _run_leg(parts, plan, quorum, rounds, seed)
        finally:
            session.uninstall()

    speedup = (
        legs["async"]["throughput_rounds_per_vsec"]
        / legs["barrier"]["throughput_rounds_per_vsec"]
    )
    return {
        "clients": num_clients,
        "rounds": rounds,
        "faults": plan.describe(),
        "barrier": legs["barrier"],
        "async": legs["async"],
        "throughput_speedup": speedup,
    }


@register("loadtest")
def run(
    mode: str = "quick",
    out_dir: str = "results/quick",
    seed: int = 0,
    faults: Optional[str] = None,
    fault_seed: int = 0,
    clients: Optional[int] = None,
) -> ExperimentResult:
    metrics = measure(mode, seed, faults, fault_seed, clients)
    result = ExperimentResult(
        name="loadtest",
        headers=["leg", "quorum", "rounds/vsec", "late updates", "test acc"],
        meta={
            "clients": str(metrics["clients"]),
            "faults": metrics["faults"],
            "throughput_speedup": f"{metrics['throughput_speedup']:.2f}x",
        },
    )
    for leg_name in ("barrier", "async"):
        leg = metrics[leg_name]
        result.add(
            leg_name,
            f"{leg['quorum']:.2f}",
            f"{leg['throughput_rounds_per_vsec']:.3f}",
            leg["late_updates"],
            f"{leg['final_test_acc']:.4f}",
        )
    result.save(out_dir)
    return result

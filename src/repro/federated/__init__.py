"""Simulated federated-learning runtime.

The paper simulates FL on a single machine; we do the same but keep the
communication structure explicit: every byte that would cross the wire
goes through a :class:`Communicator` with MPI-style collectives
(broadcast / gather) and a per-round byte meter, so the
communication-cost claims of Table 3 and contribution (ii) are measured,
not assumed.

Key pieces:

* :class:`Communicator` / :class:`CommStats` — metered transport
  (thread-safe counters).
* :class:`ClientExecutor` — ordered serial/threaded map over clients;
  ``TrainerConfig.num_workers`` turns it on.
* :func:`fedavg` — weighted parameter averaging (Eq. 2's minimizer).
* :class:`Client` — owns a party subgraph, a local model and optimizer.
* :class:`FederatedTrainer` — the one round loop, for both engines,
  with communication interval, patience-based early stopping, and
  per-round history (Figure 5's data source).
* :class:`AsyncRoundEngine` — the event queue behind
  ``TrainerConfig.engine="async"``: it supplies the trainer's loop with
  quorum training and staleness-weighted FedAvg on a seeded
  :class:`VirtualClock`.
"""

from repro.federated.async_engine import (
    AsyncRoundEngine,
    ClientLatencyModel,
    PendingReport,
    proximal_correction,
    quorum_target,
    staleness_weights,
)
from repro.federated.clock import Clock, SystemClock, VirtualClock
from repro.federated.comm import Communicator, CommStats, payload_bytes
from repro.federated.executor import ClientExecutor, resolve_workers
from repro.federated.faults import (
    ClientDropped,
    ClientFaultError,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    FaultingExecutor,
    FaultyCommunicator,
    ResiliencePolicy,
    corrupt_payload,
    payload_is_finite,
)
from repro.federated.server import fedavg, uniform_fedavg
from repro.federated.client import Client
from repro.federated.checkpoint import (
    checkpoint_path,
    load_trainer_checkpoint,
    save_trainer_checkpoint,
)
from repro.federated.history import RoundRecord, TrainingHistory
from repro.federated.trainer import FederatedTrainer, TrainerConfig

__all__ = [
    "AsyncRoundEngine",
    "ClientLatencyModel",
    "PendingReport",
    "proximal_correction",
    "quorum_target",
    "staleness_weights",
    "Clock",
    "SystemClock",
    "VirtualClock",
    "Communicator",
    "CommStats",
    "payload_bytes",
    "ClientExecutor",
    "resolve_workers",
    "ClientDropped",
    "ClientFaultError",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "FaultingExecutor",
    "FaultyCommunicator",
    "ResiliencePolicy",
    "corrupt_payload",
    "payload_is_finite",
    "checkpoint_path",
    "load_trainer_checkpoint",
    "save_trainer_checkpoint",
    "fedavg",
    "uniform_fedavg",
    "Client",
    "RoundRecord",
    "TrainingHistory",
    "FederatedTrainer",
    "TrainerConfig",
]

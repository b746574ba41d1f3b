"""The federated round loop, shared by both round engines.

:class:`FederatedTrainer` implements the three-phase protocol of §3
(Figure 2): distribute global model → local training → aggregate.
Algorithm subclasses (FedOMD in :mod:`repro.core.fedomd`, baselines in
:mod:`repro.baselines`) override four hooks:

* :meth:`build_model` — the local architecture.
* :meth:`local_loss` — the per-step objective (default: cross-entropy).
* :meth:`begin_round` — pre-round communication (FedOMD's 2-round
  moment exchange, SCAFFOLD's control-variate download, …).
* :meth:`aggregate` — server combination (default: FedAvg weighted by
  each party's ``n_i``; LocGCN returns ``None`` to skip aggregation
  entirely).

The loop runs ``max_rounds`` communication rounds in which every party
takes part (the paper's full participation), with ``local_epochs``
optimizer steps per client per round (the paper's communication
interval of 1 means one local epoch per round).  A local step whose
loss goes non-finite is rolled back.  The loop evaluates the weighted
cross-party accuracy every round and early-stops on validation accuracy
with the paper's patience of 200.  With
``engine="async"`` the same loop runs and the
:class:`~repro.federated.async_engine.AsyncRoundEngine` supplies its
train and aggregate steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.autograd import Tensor
from repro.federated.client import Client
from repro.federated.clock import Clock, SystemClock, VirtualClock
from repro.federated.comm import Communicator, KIND_WEIGHTS
from repro.federated.executor import ClientExecutor
from repro.federated.faults import (
    ClientDropped,
    FaultInjector,
    FaultPlan,
    FaultingExecutor,
    FaultyCommunicator,
    ResiliencePolicy,
    payload_is_finite,
)
from repro.federated.history import RoundRecord, TrainingHistory
from repro.federated.server import PartialState, StateDict, fedavg, take_rows
from repro.graphs.data import Graph
from repro.nn.module import Module
from repro.obs import get_registry, get_tracer


@dataclass
class TrainerConfig:
    """Hyper-parameters of a federated run (paper defaults, §5.1)."""

    max_rounds: int = 1000
    local_epochs: int = 1  # communication interval 1
    patience: int = 200
    lr: float = 0.02
    weight_decay: float = 1e-4
    hidden: int = 64
    # Worker threads for per-client work (local training, evaluation,
    # moment-exchange forwards).  1 = serial (default), 0 = one per CPU
    # in the process's affinity mask.  Parallel and serial runs produce
    # identical training metrics; see repro.federated.executor for the
    # determinism contract.  Serial runs on two or more CPUs overlap
    # each client's optimizer step with the next client's pass instead.
    num_workers: int = 1
    # ---- resilience policy (see repro.federated.faults) ----------------
    # Per-client round deadline in seconds; a client that cannot answer
    # within it is retried (below) and then excluded from the round.
    # None = wait forever (stragglers slow the round but never fail).
    client_timeout: Optional[float] = None
    # Immediate retries after a timeout.
    client_retries: int = 0
    # Server-side quarantine: uploads containing NaN/inf are excluded
    # from FedAvg (and their n_i removed from the denominator) instead
    # of poisoning the global model.
    quarantine_nonfinite: bool = True
    # ---- checkpoint/resume ---------------------------------------------
    # Save a full trainer checkpoint every N rounds (0 = off) into
    # checkpoint_dir; FederatedTrainer.resume() restores it so the
    # continued run is bitwise-identical to an uninterrupted one.
    checkpoint_every: int = 0
    checkpoint_dir: Optional[str] = None
    # ---- runtime sanitizers (see repro.analysis.sanitize) ---------------
    # Arm the autograd sanitizer (in-place-mutation, NaN/Inf and dtype
    # tripwires with op provenance) and, when num_workers > 1, the
    # lock-ownership probes on Communicator/MetricsRegistry.  Sanitized
    # runs are bitwise identical to unsanitized ones — the probes only
    # read values — they just fail loudly instead of training through
    # corrupted state.
    sanitize: bool = False
    # ---- round engine (see repro.federated.async_engine) -----------------
    # "barrier": every round waits for all its participants.  "async":
    # the event-driven engine on a seeded virtual clock — the server
    # aggregates once `quorum` of the round's dispatched clients have
    # reported; late reports fold into later rounds staleness-weighted.
    # At quorum=1.0 with no churn the async engine reproduces the
    # barrier trajectory bitwise.
    engine: str = "barrier"
    # Fraction of dispatched clients whose uploads a round waits for.
    # Staleness decay, proximal strength and report latency are
    # constants of repro.federated.async_engine.
    quorum: float = 1.0

    def __post_init__(self) -> None:
        if self.max_rounds < 1 or self.local_epochs < 1:
            raise ValueError("max_rounds and local_epochs must be >= 1")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.num_workers < 0:
            raise ValueError("num_workers must be >= 0 (0 = auto)")
        if self.client_timeout is not None and self.client_timeout <= 0:
            raise ValueError("client_timeout must be positive (or None)")
        if self.client_retries < 0:
            raise ValueError("client_retries must be >= 0")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0 (0 = off)")
        if self.checkpoint_every > 0 and not self.checkpoint_dir:
            raise ValueError("checkpoint_every needs a checkpoint_dir")
        if self.engine not in ("barrier", "async"):
            raise ValueError(f"engine must be 'barrier' or 'async', got {self.engine!r}")
        if not 0.0 < self.quorum <= 1.0:
            raise ValueError("quorum must be in (0, 1]")


class FederatedTrainer:
    """Base trainer = FedAvg over whatever :meth:`build_model` returns."""

    name = "fedavg"

    def __init__(
        self,
        parts: Sequence[Graph],
        config: Optional[TrainerConfig] = None,
        seed: int = 0,
        faults: Optional[FaultPlan] = None,
        clock: Optional[Clock] = None,
    ) -> None:
        if not parts:
            raise ValueError("need at least one party")
        self.config = config or TrainerConfig()
        self.seed = seed
        # The async engine *requires* virtual time (arrival order is part
        # of the trajectory); the barrier engine defaults to real time but
        # accepts a VirtualClock so fault drills stop paying wall-clock.
        if clock is not None:
            self.clock = clock
        elif self.config.engine == "async":
            self.clock = VirtualClock()
        else:
            self.clock = SystemClock()
        self.executor = ClientExecutor(self.config.num_workers)
        if faults is not None:
            policy = ResiliencePolicy(
                client_timeout=self.config.client_timeout,
                client_retries=self.config.client_retries,
            )
            self.injector: Optional[FaultInjector] = FaultInjector(
                faults, policy, clock=self.clock
            )
            self.comm: Communicator = FaultyCommunicator(len(parts), self.injector)
            self.fault_executor: Optional[FaultingExecutor] = FaultingExecutor(
                self.executor, self.injector
            )
        else:
            self.injector = None
            self.comm = Communicator(num_clients=len(parts))
            self.fault_executor = None
        if self.config.sanitize:
            from repro.analysis.sanitize import SanitizerSession

            self.sanitizer: Optional[SanitizerSession] = SanitizerSession(
                concurrency=self.executor.parallel,
                per_client_protocol=self.config.engine == "async",
            )
            self.sanitizer.attach_communicator(self.comm)
            # Yield-point shims (no-ops unless the session carries a
            # schedule controller — only the model checker does).
            self.sanitizer.attach_clock(self.clock)
            self.sanitizer.attach_executor(self.executor)
        else:
            self.sanitizer = None
        self.history = TrainingHistory()
        self._participants: Optional[List[int]] = None
        # Early-stopping state lives on the instance (not run() locals) so
        # checkpoint/resume can capture and replay it exactly.
        self._start_round = 0
        self._best_val = -np.inf
        self._best_states: Optional[List[Dict[str, np.ndarray]]] = None
        self._best_global: Optional[StateDict] = None
        self._rounds_since_best = 0
        self._model_graph = parts[0]
        self.clients: List[Client] = []
        for cid, g in enumerate(parts):
            # Same seed for every client: all parties start from one
            # global model, as phase 1 of §3 requires.
            model = self.build_model(g, np.random.default_rng(seed))
            if cid == 0:
                # The server's one global model, full-size before any
                # party keeps only its rows: rows that no party holds
                # live only here.  Both engines read and replace it.
                self.global_state: StateDict = model.state_dict()
            self.clients.append(
                Client(cid, g, model, lr=self.config.lr, weight_decay=self.config.weight_decay)
            )
        if self.sanitizer is not None:
            # Declare every party's raw tensors to the privacy tripwire:
            # an upload aliasing these buffers, or copying a row of the
            # sparse ones (features, their transpose, the structure), is
            # a §4.4 escape.
            for c in self.clients:
                self.sanitizer.register_private_arrays(
                    [
                        (f"client{c.cid}.graph.x", c.graph.x),
                        (f"client{c.cid}.graph.x.rev", c.graph.x.rev),
                        (f"client{c.cid}.graph.y", c.graph.y),
                        (f"client{c.cid}.graph.adj", c.graph.adj),
                    ]
                )
        self._sync_initial_state()
        # Built after the W₀ download and before any resume(), which
        # restores the engine's event queue.
        if self.config.engine == "async":
            from repro.federated.async_engine import AsyncRoundEngine

            self.async_engine: Optional[AsyncRoundEngine] = AsyncRoundEngine(self)
        else:
            self.async_engine = None

    # ------------------------------------------------------------------
    # hooks
    # ------------------------------------------------------------------
    def build_model(self, graph: Graph, rng: np.random.Generator) -> Module:
        """Local model factory (default: 2-layer GCN)."""
        from repro.gnn import GCN

        return GCN(graph.num_features, graph.num_classes, hidden=self.config.hidden, rng=rng)

    def local_loss(self, client: Client) -> Tensor:
        """Per-step objective (default: masked cross-entropy)."""
        return client.ce_loss()

    def begin_round(self, round_idx: int) -> None:
        """Pre-round communication hook (default: none)."""

    def participating_clients(self) -> List[Client]:
        """This round's participants: every client, minus async in-flight ones."""
        if self._participants is None:
            return self.clients
        return [self.clients[i] for i in self._participants]

    def active_clients(self) -> List[Client]:
        """This round's participants minus any that have failed.

        Without fault injection this is exactly
        :meth:`participating_clients`; under a fault plan, dropped /
        crashed / timed-out clients disappear from here — and therefore
        from local training, the moment exchange, and FedAvg — for the
        rest of the round.
        """
        participants = self.participating_clients()
        if self.injector is None:
            return participants
        return self.injector.active(participants)

    def aggregate(self) -> Optional[Dict[str, np.ndarray]]:
        """Collect surviving clients' states, return the new global state.

        Aggregates what the *server received* (the metered — and, under
        fault injection, possibly corrupted — payload), not the client's
        in-memory state: the two only differ when the channel misbehaves,
        which is exactly when the difference matters.  A party that holds
        only some rows uploads those, and
        :func:`~repro.federated.server.fedavg` folds them into the full
        global state.  Uploads that arrive non-finite are quarantined:
        excluded from FedAvg with their ``n_i`` removed from the
        denominator, so survivors are reweighted over whoever actually
        contributed.  Returns ``None`` (keep the previous global model)
        when nobody survives.
        """
        states: List[Dict[str, np.ndarray]] = []
        kept: List[Client] = []
        for c in self.active_clients():
            # The live parameter arrays: the server receives read-only
            # views of them and fedavg consumes those before _distribute
            # overwrites the parameters, so no weight-sized copy is made.
            live = {name: p.data for name, p in c.model.named_parameters()}
            try:
                payload = self.comm.send_to_server(c.cid, live, kind=KIND_WEIGHTS)
            except ClientDropped:
                continue
            if self.config.quarantine_nonfinite and not payload_is_finite(payload):
                self._quarantine(c)
                continue
            if c.rows:
                payload = PartialState(payload, c.rows, self.global_state)
            states.append(payload)
            kept.append(c)
        if not states:
            return None
        return fedavg(states, [max(c.num_train, 1) for c in kept])

    def _quarantine(self, client: Client) -> None:
        """Record a non-finite upload and exclude the client this round."""
        reg = get_registry()
        if reg.enabled:
            reg.counter("faults.quarantined").inc()
        if self.injector is not None:
            self.injector.mark_failed(client.cid, "quarantine")

    def after_local_training(self, round_idx: int) -> None:
        """Hook after local epochs, before aggregation (default: none)."""

    # ------------------------------------------------------------------
    # loop
    # ------------------------------------------------------------------
    def _sync_initial_state(self) -> None:
        """Phase 1: send W₀ so every party starts identically."""
        self._distribute(self.global_state)

    def _distribute(self, state: StateDict, busy=()) -> None:
        """Make ``state`` the global model; send it to every client not in ``busy``.

        Each idle client gets its own send of the rows it holds
        (:meth:`_download`); the busy ones (async reports still in
        flight) pull the model when they report.
        """
        self.global_state = state
        for client in self.clients:
            if client.cid not in busy:
                self._download(client)

    def _download(self, client: Client) -> None:
        """Send ``client`` the rows of the global model it holds and install them."""
        payload = take_rows(self.global_state, client.rows)
        client.set_state(self.comm.send_to_client(client.cid, payload, kind=KIND_WEIGHTS))

    def global_model(self) -> Module:
        """A full-size model holding the best-validation global state.

        The current global state when no round has been evaluated yet.
        This is the model ``--save-model`` exports.
        """
        model = self.build_model(self._model_graph, np.random.default_rng(self.seed))
        best = self._best_global
        model.load_state_dict(self.global_state if best is None else best)
        return model

    def evaluate(self, split: str = "test") -> float:
        """Node-weighted average accuracy across parties.

        Each client's logits come from its cached eval forward
        (:meth:`Client.eval_forward`), so evaluating ``val`` then
        ``test`` runs one forward per client, not two.
        """
        results = self.executor.map(
            lambda c: c.evaluate(split),
            self.clients,
            span="client.eval",
            attrs=lambda c: {"client": c.cid, "split": split},
        )
        accs = [acc for acc, n in results if n > 0]
        counts = [n for _, n in results if n > 0]
        if not counts:
            return float("nan")
        return float(np.average(accs, weights=counts))

    def _local_epochs(self, client: Client) -> List[float]:
        """One client's local epochs this round; its losses in step order."""
        return [
            client.train_step(self.local_loss, nan_guard=True)
            for _ in range(self.config.local_epochs)
        ]

    def _train_participants(self) -> List[float]:
        """Local epochs for every participant; losses in client order.

        One executor task per client runs all its local epochs — the
        client's own op sequence (and RNG draws) is identical to the
        serial loop's, so results are bitwise reproducible regardless of
        how clients interleave across workers.
        """
        clients = self.active_clients()
        if self.fault_executor is not None:
            survivors = self.fault_executor.map_surviving(
                self._local_epochs,
                clients,
                span="client.local_train",
                attrs=lambda c: {"client": c.cid},
            )
            per_client = [losses for _, losses in survivors]
        else:
            per_client = self.executor.map(
                self._local_epochs,
                clients,
                span="client.local_train",
                attrs=lambda c: {"client": c.cid},
            )
        return [loss for client_losses in per_client for loss in client_losses]

    def resume(self, path: str) -> "FederatedTrainer":
        """Restore a :func:`save_trainer_checkpoint` snapshot in place.

        The trainer must be constructed exactly as the checkpointed one
        (same parts, config, seed); :meth:`run` then continues from the
        saved round and reproduces the uninterrupted run bit for bit.
        """
        from repro.federated.checkpoint import load_trainer_checkpoint

        load_trainer_checkpoint(self, path)
        if self.sanitizer is not None:
            # The checkpoint restore replaced comm.stats with a plain
            # CommStats; re-arm the lock-ownership probe on it.
            self.sanitizer.attach_communicator(self.comm)
        return self

    def _maybe_checkpoint(self, round_idx: int) -> None:
        cfg = self.config
        if cfg.checkpoint_every <= 0:
            return
        if (round_idx + 1) % cfg.checkpoint_every != 0:
            return
        from repro.federated.checkpoint import checkpoint_path, save_trainer_checkpoint

        save_trainer_checkpoint(
            self, checkpoint_path(cfg.checkpoint_dir), next_round=round_idx + 1
        )

    def run(self, verbose: bool = False) -> TrainingHistory:
        """Train until ``max_rounds`` or patience exhaustion; return history."""
        if self.sanitizer is not None:
            self.sanitizer.install()
            # The live registry may have been swapped in (TelemetrySession)
            # after construction; probe whatever is current.
            self.sanitizer.attach_registry(get_registry())
        try:
            with self.executor.one_blas_thread():
                self._run_rounds(verbose)
        finally:
            if self.sanitizer is not None:
                self.sanitizer.uninstall()
            # Release the pool threads, also when a round raised; the
            # executor respawns lazily if the trainer is evaluated or
            # resumed afterwards.
            self.executor.shutdown()

        # Restore the best-validation snapshot (standard early stopping).
        if self._best_states is not None:
            for client, state in zip(self.clients, self._best_states):
                client.set_state(state)
        return self.history

    def _run_rounds(self, verbose: bool) -> None:
        """Rounds ``_start_round .. max_rounds`` of Algorithm 1, either engine.

        The async engine supplies three steps: it masks clients still in
        flight out of the round's participants, its ``train`` dispatches
        reports and waits for quorum, and its ``aggregate`` folds the
        arrivals and pushes the model.  Everything else — spans, hooks,
        evaluation, the history record, early stopping, checkpoints — is
        this loop's.

        ``wall_time`` and ``train_time`` are read on ``self.clock``: real
        seconds on a :class:`SystemClock`, simulated seconds on a
        :class:`VirtualClock` (digest-exempt, like every timing field).
        The other phase times are span durations, so profiler
        attribution stays in real seconds.
        """
        cfg = self.config
        engine = self.async_engine
        clock = self.clock
        # Schedule-controller yield points (only the model checker
        # attaches a controller).
        ctrl = getattr(clock, "controller", None)
        tracer = get_tracer()
        round_attrs = {"engine": "async"} if engine is not None else {}
        for round_idx in range(self._start_round, cfg.max_rounds):
            if ctrl is not None:
                ctrl.on_yield("async.round", round=round_idx, engine=engine)
            with tracer.span("round", round=round_idx, **round_attrs):
                round_t0 = clock.now()
                with tracer.span("exchange", round=round_idx, phase="exchange") as sp_exchange:
                    if engine is not None:
                        engine.mask_in_flight()
                    if self.injector is not None:
                        self.injector.begin_round(round_idx, len(self.clients))
                    self.begin_round(round_idx)

                with tracer.span("train", round=round_idx, phase="train"):
                    train_t0 = clock.now()
                    if engine is not None:
                        losses = engine.train(round_idx)
                    else:
                        losses = self._train_participants()
                    self.after_local_training(round_idx)
                    train_time = clock.now() - train_t0

                with tracer.span("aggregate", round=round_idx, phase="aggregate") as sp_agg:
                    if engine is not None:
                        engine.aggregate(round_idx)
                    else:
                        global_state = self.aggregate()
                        if global_state is not None:
                            self._distribute(global_state)
                    self.comm.end_round()

                with tracer.span("eval", round=round_idx, phase="eval") as sp_eval:
                    val_acc = self.evaluate("val")
                    test_acc = self.evaluate("test")
                finite = [l for l in losses if np.isfinite(l)]
                self.history.append(
                    RoundRecord(
                        round=round_idx,
                        train_loss=float(np.mean(finite)) if finite else float("nan"),
                        val_acc=val_acc,
                        test_acc=test_acc,
                        uplink_bytes=self.comm.stats.uplink_bytes,
                        downlink_bytes=self.comm.stats.downlink_bytes,
                        wall_time=clock.now() - round_t0,
                        exchange_time=sp_exchange.duration,
                        train_time=train_time,
                        agg_time=sp_agg.duration,
                        eval_time=sp_eval.duration,
                    )
                )
                if verbose:
                    print(
                        f"[{self.name}] round {round_idx:4d} "
                        f"loss {self.history.records[-1].train_loss:.4f} "
                        f"val {val_acc:.4f} test {test_acc:.4f}"
                    )
                if val_acc > self._best_val:
                    self._best_val = val_acc
                    self._best_states = [c.get_state() for c in self.clients]
                    # Global states are replaced, never written in place.
                    self._best_global = self.global_state
                    self._rounds_since_best = 0
                else:
                    self._rounds_since_best += 1
                stop = self._rounds_since_best >= cfg.patience
            self._maybe_checkpoint(round_idx)
            if ctrl is not None:
                # Checkpoint boundary: for the async engine the heap,
                # version and clock are exactly what its state_dict()
                # serializes — the checker snapshots here to assert
                # resume equivalence.
                ctrl.on_yield("async.checkpoint", round=round_idx, engine=engine)
            if stop:
                return

    # ------------------------------------------------------------------
    def final_test_accuracy(self) -> float:
        """Test accuracy of the restored best model."""
        return self.evaluate("test")

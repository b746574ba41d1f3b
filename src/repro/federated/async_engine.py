"""Event-driven asynchronous round engine on a seeded virtual clock.

The barrier loop in :mod:`repro.federated.trainer` blocks every round on
its slowest client, so an injected straggler (PR 3's ``FaultPlan``)
stalls *global* progress — the opposite of production federated traffic,
where the server aggregates whoever has reported and late updates fold
into later rounds.  :class:`AsyncRoundEngine` is that server:

* **Event model.**  Dispatching a client schedules one
  :class:`PendingReport` on a min-heap keyed by *virtual* arrival time
  (seeded :class:`ClientLatencyModel` latency of
  ``LATENCY_BASE·(1 + LATENCY_JITTER·U[0,1))`` plus any straggler delay
  from the fault plan).  The engine pops reports in timestamp order,
  advancing a :class:`~repro.federated.clock.VirtualClock` — never the
  wall clock, so arrival schedules (and therefore quorum decisions and
  staleness accounting) are bit-reproducible.  A client's local epochs
  run when its report *pops*: between dispatch and pop the client is
  "computing" and its in-memory state is exactly its dispatch-time
  state, which is what makes mid-quorum checkpoints consistent without
  serializing any extra arrays.
* **Quorum.**  A round waits for ``ceil(quorum · dispatched)``
  successful uploads (stragglers of earlier rounds count — an upload is
  an upload), then aggregates.  Clients still in flight are simply not
  re-dispatched; their reports land in later rounds carrying staleness.
* **Staleness-weighted FedAvg.**  An update that is ``s`` model
  versions old is first pulled toward the current global model with a
  FedProx-flavored proximal step (:func:`proximal_correction`, strength
  ``μ·s/(1+μ·s)`` with ``μ = PROX_MU``) and then weighted
  ``λ_i ∝ n_i · decay^s`` with ``decay = STALENESS_DECAY``
  (:func:`staleness_weights`); updates more than ``MAX_STALENESS``
  versions old are discarded.  Both are exact no-ops at ``s = 0``: a
  full-quorum run takes the *identical* ``fedavg`` call the barrier
  trainer takes, which is what the golden-digest equivalence test pins
  bitwise.  The global model is the trainer's one global state; a
  party that holds only some rows uploads and downloads those.
* **Churn.**  Drop/corrupt faults apply at upload time through the
  existing :class:`~repro.federated.faults.FaultyCommunicator`; a
  ``crash`` client trains (state and RNG advance) but its report is
  lost; a client that reports after the server has moved on pulls the
  current global model before it can be dispatched again.

The engine is selected with ``TrainerConfig.engine = "async"``.  It
has no round loop of its own: ``FederatedTrainer._run_rounds`` runs
every round for both engines — hooks, spans, evaluation, history, early
stopping, checkpoints — and calls the engine for three steps: masking
in-flight clients out of the round's participants, the local phase
(dispatch and wait for quorum) and the server phase (fold the arrivals,
push the model).  It requires the default FedAvg aggregation:
algorithms that override ``aggregate`` (FedProx's server step, LocGCN's
no-op) have barrier-only semantics and are rejected at construction
rather than silently misaggregated.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.federated.clock import VirtualClock
from repro.federated.comm import KIND_WEIGHTS
from repro.federated.faults import CRASH, STRAGGLER, ClientDropped, payload_is_finite
from repro.federated.server import PartialState, Rows, StateDict, fedavg, take_rows
from repro.obs import get_registry, get_tracer

#: SeedSequence domain tag keeping latency draws independent from every
#: other consumer of the run seed (FaultPlan cells, model init).
_LATENCY_STREAM = 0x1A7E

#: λ_i ∝ n_i · STALENESS_DECAY^s for an update s model versions old.
STALENESS_DECAY = 0.5
#: Updates older than this many versions are discarded outright.
MAX_STALENESS = 8
#: Strength of the proximal pull of stale updates toward the current
#: global model, μ·s/(1+μ·s); exact no-op at s=0.
PROX_MU = 0.1
#: Simulated report latency in virtual seconds, drawn per (round,
#: client) as LATENCY_BASE·(1 + LATENCY_JITTER·U[0,1)).
LATENCY_BASE = 0.05
LATENCY_JITTER = 0.5

__all__ = [
    "AsyncRoundEngine",
    "ClientLatencyModel",
    "FoldResult",
    "PendingReport",
    "fold_arrivals",
    "proximal_correction",
    "quorum_target",
    "staleness_weights",
]


# ----------------------------------------------------------------------
# pure aggregation math (property-tested in tests/federated/test_staleness.py)
# ----------------------------------------------------------------------
def staleness_weights(
    counts: Sequence[float], staleness: Sequence[int], decay: float
) -> np.ndarray:
    """Normalized aggregation weights ``λ_i ∝ n_i · decay^{s_i}``.

    ``decay ** 0 == 1.0`` exactly, so at zero staleness this returns the
    same ``w / w.sum()`` FedAvg computes from raw sample counts — the
    bitwise-reduction property the async engine's deterministic mode
    rests on.  All-zero effective mass (every ``n_i = 0``) falls back to
    uniform weights over the contributors, mirroring ``fedavg``'s
    ``weights=None`` branch.
    """
    counts_arr = np.asarray(counts, dtype=np.float64)
    stale_arr = np.asarray(staleness, dtype=np.float64)
    if counts_arr.ndim != 1 or counts_arr.shape != stale_arr.shape:
        raise ValueError("counts and staleness must be equal-length 1-D sequences")
    if counts_arr.size == 0:
        raise ValueError("no contributions to weight")
    if np.any(counts_arr < 0):
        raise ValueError("sample counts must be non-negative")
    if np.any(stale_arr < 0):
        raise ValueError("staleness must be non-negative")
    if not 0.0 < decay <= 1.0:
        raise ValueError("staleness decay must be in (0, 1]")
    lam = counts_arr * np.power(decay, stale_arr)
    total = lam.sum()
    if total <= 0:
        return np.full(counts_arr.size, 1.0 / counts_arr.size)
    return lam / total


def proximal_correction(
    state: StateDict, global_state: StateDict, staleness: int, mu: float
) -> StateDict:
    """FedProx-style pull of a stale update toward the current global model.

    Returns ``W_i + γ (W̄ − W_i)`` with ``γ = μ·s / (1 + μ·s)``: the
    closed-form minimizer of ``‖W − W_i‖² + μ·s·‖W − W̄‖²`` — the
    proximal term grows with staleness, so an update that missed many
    versions is trusted less.  At ``s = 0`` (or ``μ = 0``) the input is
    returned *unchanged* (same object, no float ops), preserving bitwise
    parity on the deterministic path.  A :class:`PartialState` upload
    is pulled toward the rows of ``W̄`` it holds and stays partial.
    """
    if staleness < 0:
        raise ValueError("staleness must be non-negative")
    if mu < 0:
        raise ValueError("proximal strength mu must be non-negative")
    if staleness == 0 or mu == 0.0:
        return state
    gamma = (mu * staleness) / (1.0 + mu * staleness)
    target = take_rows(global_state, getattr(state, "rows", {}))
    pulled = {k: v + gamma * (target[k] - v) for k, v in state.items()}
    if isinstance(state, PartialState):
        return PartialState(pulled, state.rows, state.base)
    return pulled


def quorum_target(num_dispatched: int, quorum: float) -> int:
    """Uploads required before the round aggregates.

    ``ceil(quorum · n)`` clamped to ``[1, n]`` (an epsilon absorbs float
    representation of e.g. ``0.8 * 5``); a round that dispatched nobody
    (everyone still in flight) waits for a single arrival from the
    backlog so the run always makes progress.
    """
    if not 0.0 < quorum <= 1.0:
        raise ValueError("quorum must be in (0, 1]")
    if num_dispatched <= 0:
        return 1
    return min(num_dispatched, max(1, math.ceil(quorum * num_dispatched - 1e-9)))


# ----------------------------------------------------------------------
# the simulated network
# ----------------------------------------------------------------------
class ClientLatencyModel:
    """Seeded per-(round, client) report latency.

    Like :meth:`FaultPlan.event`, :meth:`duration` is a pure function of
    ``(seed, round, client)`` — the RNG is rebuilt from a
    :class:`numpy.random.SeedSequence` keyed on exactly those integers —
    so arrival schedules are independent of query order, thread
    interleaving, and resume point.
    """

    def __init__(self, seed: int, base: float, jitter: float) -> None:
        if base < 0 or jitter < 0:
            raise ValueError("latency base and jitter must be non-negative")
        self.seed = int(seed)
        self.base = float(base)
        self.jitter = float(jitter)

    def duration(self, round_idx: int, client_id: int) -> float:
        rng = np.random.default_rng(
            np.random.SeedSequence(
                (self.seed, _LATENCY_STREAM, int(round_idx), int(client_id))
            )
        )
        return self.base * (1.0 + self.jitter * float(rng.random()))


@dataclass(frozen=True)
class PendingReport:
    """One in-flight client computation, scheduled on the event heap.

    ``base_version`` is the global model version the client trained
    from; staleness at arrival is ``engine.version - base_version``.
    ``crash`` is resolved at dispatch (the fault plan is consulted for
    the *dispatch* round) so a checkpointed queue replays identically.
    """

    time: float
    seq: int
    cid: int
    round: int
    base_version: int
    crash: bool = False


@dataclass
class _ClientUpdate:
    """A successful upload, as the server received it."""

    cid: int
    state: StateDict
    num_train: int
    base_version: int
    #: the rows the party holds of its partial parameters (none: all rows)
    rows: Rows = field(default_factory=dict)


@dataclass(frozen=True)
class FoldResult:
    """Outcome of :func:`fold_arrivals` — the model plus the bookkeeping."""

    new_global: Optional[StateDict]
    #: cids whose payload was quarantined (non-finite), in cid order.
    quarantined: Tuple[int, ...]
    #: cids discarded as over-stale, in cid order.
    discarded: Tuple[int, ...]
    #: ``(cid, staleness)`` of every update that entered the average.
    kept: Tuple[Tuple[int, int], ...]


def fold_arrivals(
    arrivals: Sequence[_ClientUpdate],
    version: int,
    global_state: Optional[StateDict],
    *,
    max_staleness: int,
    decay: float,
    mu: float,
    quarantine_nonfinite: bool = True,
) -> FoldResult:
    """Order-insensitive staleness-weighted FedAvg over one round's arrivals.

    This is the pure reduction the engine's ``_aggregate`` wraps: a pure
    function of the arrival *set* — the first thing it does is sort by
    client id, so any permutation of ``arrivals`` (network reordering,
    heap-pop order, executor interleaving) produces a bitwise-identical
    result.  That invariant is what the hypothesis property in
    ``tests/federated/test_staleness.py`` pins, and what
    ``tests/federated/test_async_engine.py`` checks end to end on a run
    whose stragglers reorder the engine's pops.

    NaN payloads are quarantined (their ``n_i`` leaves the denominator),
    updates staler than ``max_staleness`` are discarded, and when every
    survivor has zero staleness the fold takes the *identical*
    ``fedavg`` call the barrier trainer takes.  Partial uploads fold
    into ``global_state``'s full rows through that same ``fedavg``.
    """
    kept: List[Tuple[_ClientUpdate, int]] = []
    quarantined: List[int] = []
    discarded: List[int] = []
    for update in sorted(arrivals, key=lambda u: u.cid):
        stale = version - update.base_version
        if quarantine_nonfinite and not payload_is_finite(update.state):
            quarantined.append(update.cid)
            continue
        if stale > max_staleness:
            discarded.append(update.cid)
            continue
        kept.append((update, stale))
    new_global = _fold(kept, global_state, decay, mu)
    kept_meta = tuple((u.cid, stale) for u, stale in kept)
    return FoldResult(new_global, tuple(quarantined), tuple(discarded), kept_meta)


def _fold(
    kept: Sequence[Tuple[_ClientUpdate, int]],
    global_state: Optional[StateDict],
    decay: float,
    mu: float,
) -> Optional[StateDict]:
    """:func:`fold_arrivals`' average of the kept ``(update, staleness)`` pairs."""
    if not kept:
        return None
    states = [
        PartialState(u.state, u.rows, global_state) if u.rows else u.state
        for u, _ in kept
    ]
    if all(stale == 0 for _, stale in kept):
        return fedavg(states, [u.num_train for u, _ in kept])
    states = [
        proximal_correction(state, global_state, stale, mu)
        for state, (_, stale) in zip(states, kept)
    ]
    counts = [float(u.num_train) for u, _ in kept]
    lam = staleness_weights(counts, [stale for _, stale in kept], decay)
    return fedavg(states, lam.tolist())


class AsyncRoundEngine:
    """The quorum-aggregating event queue behind ``engine="async"``.

    Owns the event heap, the in-flight set and the global model version
    counter.  The trainer owns everything else — clients, communicator,
    the global state, history, early stopping, checkpoints — and its
    round loop calls the engine for three
    steps: :meth:`mask_in_flight` at round start,
    :meth:`train` for the local phase and :meth:`aggregate` for the
    server phase.  :meth:`state_dict` / :meth:`load_state_dict`
    round-trip the engine through the trainer checkpoint so a resumed
    run replays the arrival schedule bitwise.
    """

    def __init__(self, trainer) -> None:
        from repro.federated.trainer import FederatedTrainer

        cfg = trainer.config
        if cfg.engine != "async":
            raise ValueError("AsyncRoundEngine requires TrainerConfig.engine='async'")
        if not isinstance(trainer.clock, VirtualClock):
            raise ValueError(
                "the async engine runs on a VirtualClock: arrival order is part "
                "of the training trajectory and must be reproducible"
            )
        if type(trainer).aggregate is not FederatedTrainer.aggregate:
            raise ValueError(
                f"{type(trainer).__name__} overrides aggregate(); the async "
                "engine implements staleness-weighted FedAvg itself and cannot "
                "replay a custom server step — use engine='barrier'"
            )
        self.trainer = trainer
        self.clock: VirtualClock = trainer.clock
        self.latency = ClientLatencyModel(trainer.seed, LATENCY_BASE, LATENCY_JITTER)
        self.version = 0
        self._seq = 0
        self._heap: List[Tuple[float, int, PendingReport]] = []
        self._in_flight: Dict[int, PendingReport] = {}
        self._round_losses: List[Tuple[int, List[float]]] = []
        self._arrivals: List[_ClientUpdate] = []

    # ------------------------------------------------------------------
    # checkpoint plumbing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """JSON-safe engine state (the heap, version, virtual time)."""
        return {
            "version": int(self.version),
            "seq": int(self._seq),
            "clock": float(self.clock.now()),
            "queue": [
                {
                    "time": float(r.time),
                    "seq": int(r.seq),
                    "cid": int(r.cid),
                    "round": int(r.round),
                    "base_version": int(r.base_version),
                    "crash": bool(r.crash),
                }
                for _, _, r in sorted(self._heap)
            ],
        }

    @property
    def global_state(self) -> StateDict:
        """The current global model: the trainer's one global state."""
        return self.trainer.global_state

    def load_state_dict(self, meta: dict) -> None:
        self.version = int(meta["version"])
        self._seq = int(meta["seq"])
        self.clock.advance_to(float(meta["clock"]))
        self._heap = []
        self._in_flight = {}
        for e in meta["queue"]:
            report = PendingReport(
                time=float(e["time"]),
                seq=int(e["seq"]),
                cid=int(e["cid"]),
                round=int(e["round"]),
                base_version=int(e["base_version"]),
                crash=bool(e["crash"]),
            )
            heapq.heappush(self._heap, (report.time, report.seq, report))
            self._in_flight[report.cid] = report

    # ------------------------------------------------------------------
    # the engine's steps of the trainer's round loop
    # ------------------------------------------------------------------
    def mask_in_flight(self) -> None:
        """Drop clients still computing from the round's participants.

        A busy client cannot start a second computation.  When nobody is
        in flight the trainer's participant state is byte-identical to
        the barrier engine's.
        """
        trainer = self.trainer
        idle = [c.cid for c in trainer.clients if c.cid not in self._in_flight]
        trainer._participants = None if len(idle) == len(trainer.clients) else idle

    def train(self, round_idx: int) -> List[float]:
        """Dispatch the round's clients and pop reports until quorum.

        Returns the losses of the reports that arrived this round, in
        client-id order; the arrivals wait for :meth:`aggregate`.
        """
        self._round_losses = []
        dispatched = self._dispatch(round_idx)
        needed = quorum_target(len(dispatched), self.trainer.config.quorum)
        self._arrivals = self._await_quorum(round_idx, needed)
        return [
            loss
            for _, client_losses in sorted(self._round_losses)
            for loss in client_losses
        ]

    def aggregate(self, round_idx: int) -> None:
        """Fold this round's arrivals and push the new model to idle clients."""
        new_global = self._aggregate(self._arrivals)
        if new_global is not None:
            self.version += 1
            self.trainer._distribute(new_global, busy=self._in_flight)
        reg = get_registry()
        if reg.enabled:
            elapsed = self.clock.elapsed
            if elapsed > 0:
                reg.gauge("async.rounds_per_vs").set((round_idx + 1) / elapsed)

    # ------------------------------------------------------------------
    # event queue
    # ------------------------------------------------------------------
    def _dispatch(self, round_idx: int) -> List[object]:
        """Schedule one :class:`PendingReport` per active idle client."""
        trainer = self.trainer
        injector = trainer.injector
        clock = self.clock
        dispatched = []
        for client in trainer.active_clients():
            delay = self.latency.duration(round_idx, client.cid)
            crash = False
            if injector is not None:
                straggle = injector.event(client.cid, STRAGGLER)
                if straggle is not None:
                    # The straggler's extra seconds become virtual arrival
                    # time — nobody blocks on them.
                    delay += straggle.delay
                    injector.record_injected(straggle)
                crash = injector.event(client.cid, CRASH) is not None
            report = PendingReport(
                time=clock.now() + delay,
                seq=self._seq,
                cid=client.cid,
                round=round_idx,
                base_version=self.version,
                crash=crash,
            )
            self._seq += 1
            heapq.heappush(self._heap, (report.time, report.seq, report))
            self._in_flight[client.cid] = report
            dispatched.append(client)
        return dispatched

    def _await_quorum(self, round_idx: int, needed: int) -> List[_ClientUpdate]:
        """Pop reports in virtual-time order until quorum is met.

        Counts *successful uploads* (crashed or dropped reports consume
        events but not quorum); if the heap drains first the round
        aggregates whatever arrived.
        """
        reg = get_registry()
        tracer = get_tracer()
        arrivals: List[_ClientUpdate] = []
        wait_t0 = self.clock.now()
        with tracer.span(
            "async.quorum_wait", round=round_idx, phase="train", needed=needed
        ) as sp:
            while len(arrivals) < needed and self._heap:
                report = self._next_report()
                del self._in_flight[report.cid]
                update = self._complete(report)
                if update is not None:
                    arrivals.append(update)
            sp.attrs["arrived"] = len(arrivals)
            sp.attrs["virtual_wait_s"] = self.clock.now() - wait_t0
        if reg.enabled:
            reg.histogram("async.quorum_wait_vs").observe(self.clock.now() - wait_t0)
        return arrivals

    def _next_report(self) -> PendingReport:
        """Pop the earliest arrival and advance virtual time to it."""
        _, _, report = heapq.heappop(self._heap)
        self.clock.advance_to(report.time)
        return report

    def _complete(self, report: PendingReport) -> Optional[_ClientUpdate]:
        """Run the popped client's local epochs and take its upload."""
        trainer = self.trainer
        injector = trainer.injector
        client = trainer.clients[report.cid]
        tracer = get_tracer()
        with tracer.span(
            "client.local_train",
            client=client.cid,
            round=report.round,
            phase="train",
        ):
            losses = trainer._local_epochs(client)
        update: Optional[_ClientUpdate] = None
        if report.crash:
            # Work happened (state and RNG advanced) but the report is
            # lost — same semantics and telemetry as the barrier path.
            if injector is not None:
                injector.record_injected(
                    injector.plan.event(report.round, report.cid)
                )
                injector.mark_failed(report.cid, CRASH)
        else:
            self._round_losses.append((report.cid, losses))
            try:
                payload = trainer.comm.send_to_server(
                    client.cid, client.get_state(), kind=KIND_WEIGHTS
                )
            except ClientDropped:
                payload = None  # the round moved on; the upload is lost
            if payload is not None:
                update = _ClientUpdate(
                    cid=client.cid,
                    state=payload,
                    num_train=max(client.num_train, 1),
                    base_version=report.base_version,
                    rows=client.rows,
                )
        if self.version > report.base_version:
            # The server moved on while this client computed: it pulls the
            # current global model before it can be dispatched again.
            trainer._download(client)
        return update

    def _aggregate(self, arrivals: List[_ClientUpdate]) -> Optional[StateDict]:
        """Staleness-weighted FedAvg over this round's arrivals.

        The math lives in :func:`fold_arrivals` — a pure, permutation-
        invariant reduction (client-id order, the barrier engine's
        aggregation order); this wrapper applies its quarantine verdicts
        to the trainer and meters the staleness telemetry.  When every
        survivor has zero staleness the fold takes the *same* ``fedavg``
        call — same weights list, same float ops — the barrier trainer
        makes.
        """
        trainer = self.trainer
        reg = get_registry()
        result = fold_arrivals(
            arrivals,
            self.version,
            self.global_state,
            max_staleness=MAX_STALENESS,
            decay=STALENESS_DECAY,
            mu=PROX_MU,
            quarantine_nonfinite=trainer.config.quarantine_nonfinite,
        )
        for cid in result.quarantined:
            trainer._quarantine(trainer.clients[cid])
        if reg.enabled:
            for _ in result.discarded:
                reg.counter("async.discarded_stale").inc()
            for cid, stale in result.kept:
                reg.histogram("async.staleness", client=cid).observe(stale)
                if stale > 0:
                    reg.counter("async.late_updates").inc()
        return result.new_global

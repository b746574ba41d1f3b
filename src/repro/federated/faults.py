"""Deterministic fault injection for the federated loop.

Real subgraph-FL deployments treat client unavailability as the common
case: parties drop offline, straggle past the round deadline, upload
corrupted payloads, or crash mid-round.  This module makes every one of
those failure modes *injectable* and — critically — *reproducible*: a
:class:`FaultPlan` is a pure function of ``(seed, round, client)``, so
two runs with the same fault seed experience byte-identical failure
schedules regardless of thread interleaving, query order, or wall-clock.

The pieces:

* :class:`FaultPlan` — seeded, declarative schedule built from
  :class:`FaultSpec` rules (or the CLI string grammar of
  :meth:`FaultPlan.from_spec`).  Stateless and side-effect free.
* :class:`FaultInjector` — per-round cache of the plan plus the
  server-side resilience policy knobs (timeout, retries).
  Owns the fault/recovery telemetry (``faults.injected`` /
  ``faults.excluded`` / ``faults.recovered`` counters, ``fault.recovery``
  spans in :mod:`repro.obs`).
* :class:`FaultingExecutor` — wraps a
  :class:`~repro.federated.executor.ClientExecutor`, injecting straggler
  delay and mid-round crash into client tasks and applying the
  retry policy.  Failed clients are *excluded from the round*
  instead of aborting the run.
* :class:`FaultyCommunicator` — a :class:`~repro.federated.comm.Communicator`
  whose uplink injects client drop (the transfer never happens) and
  payload corruption (NaN- or zero-filled weights), which the trainer's
  non-finite quarantine must catch.

Fault semantics (one fault kind at most per client per round; the first
matching spec wins):

========== ===================================================================
``drop``     Client unreachable for the whole round: it neither exchanges
             statistics, trains, nor uploads.  Sticky across retries.
``straggler`` Client takes ``delay`` extra seconds.  Without a configured
             ``client_timeout`` the round simply waits; with one, an
             attempt whose delay exceeds the timeout is abandoned and
             retried (the delay is transient — a retry succeeds), up to
             ``client_retries`` times, then the client is excluded.
``corrupt``  The client's *weight upload* arrives NaN-filled
             (``mode=nan``) or zero-filled (``mode=zero``).  NaN payloads
             must be quarantined server-side; zero payloads are finite
             and deliberately pass the quarantine (graceful-degradation
             scenario).
``crash``    Client dies mid-round: local training runs (its state and
             RNG advance) but the result is lost and the client is
             excluded.  The next broadcast re-syncs it.  Not retryable.
========== ===================================================================
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

from repro.federated.clock import Clock, SystemClock
from repro.federated.comm import Communicator, KIND_OTHER, KIND_WEIGHTS
from repro.federated.executor import ClientExecutor
from repro.obs import get_registry, get_tracer

DROP = "drop"
STRAGGLER = "straggler"
CORRUPT = "corrupt"
CRASH = "crash"
FAULT_KINDS = (DROP, STRAGGLER, CORRUPT, CRASH)

CORRUPT_MODES = ("nan", "zero")

T = TypeVar("T")
R = TypeVar("R")

#: Sentinel returned by guarded tasks whose client failed this round.
FAILED = object()


class ClientFaultError(RuntimeError):
    """An injected client failure surfacing to the server side."""

    def __init__(self, cid: int, kind: str, message: str = "") -> None:
        super().__init__(message or f"client {cid} failed ({kind})")
        self.cid = cid
        self.kind = kind


class ClientDropped(ClientFaultError):
    def __init__(self, cid: int) -> None:
        super().__init__(cid, DROP, f"client {cid} is unreachable this round")


@dataclass(frozen=True)
class FaultEvent:
    """One concrete injected fault: this client, this round, this kind."""

    round: int
    client: int
    kind: str
    delay: float = 0.0  # straggler only
    mode: str = "nan"  # corrupt only


@dataclass(frozen=True)
class FaultSpec:
    """One injection rule: fire ``kind`` with probability ``prob``.

    ``rounds`` / ``clients`` optionally restrict where the rule applies
    (inclusive round range, explicit client set).
    """

    kind: str
    prob: float
    delay: float = 0.05
    mode: str = "nan"
    rounds: Optional[Tuple[int, int]] = None
    clients: Optional[frozenset] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; one of {FAULT_KINDS}")
        if not 0.0 <= self.prob <= 1.0:
            raise ValueError(f"fault probability must be in [0, 1], got {self.prob}")
        if self.delay < 0:
            raise ValueError("straggler delay must be non-negative")
        if self.mode not in CORRUPT_MODES:
            raise ValueError(f"corrupt mode must be one of {CORRUPT_MODES}")
        if self.rounds is not None and self.rounds[0] > self.rounds[1]:
            raise ValueError(f"empty round range {self.rounds}")

    def applies(self, round_idx: int, client_id: int) -> bool:
        if self.rounds is not None and not self.rounds[0] <= round_idx <= self.rounds[1]:
            return False
        if self.clients is not None and client_id not in self.clients:
            return False
        return True


class FaultPlan:
    """A seeded, deterministic fault schedule.

    :meth:`event` is a pure function of ``(seed, round, client)``: the
    per-cell RNG is rebuilt from a :class:`numpy.random.SeedSequence`
    keyed on exactly those integers, so the schedule is independent of
    query order and thread interleaving — the property the chaos suite's
    "same fault seed ⇒ identical histories" invariant rests on.
    """

    def __init__(self, specs: Sequence[FaultSpec], seed: int = 0) -> None:
        self.specs = list(specs)
        self.seed = int(seed)
        if not self.specs:
            raise ValueError("a FaultPlan needs at least one FaultSpec")

    def event(self, round_idx: int, client_id: int) -> Optional[FaultEvent]:
        """The fault (if any) hitting ``client_id`` in ``round_idx``.

        Each applicable spec draws one uniform from the cell's own RNG,
        in spec order; the first that fires wins (at most one fault per
        client-round keeps the failure semantics unambiguous).
        """
        rng = np.random.default_rng(
            np.random.SeedSequence((self.seed, int(round_idx), int(client_id)))
        )
        for spec in self.specs:
            u = float(rng.random())  # always draw: keeps cells aligned across specs
            if not spec.applies(round_idx, client_id):
                continue
            if u < spec.prob:
                return FaultEvent(
                    round=round_idx,
                    client=client_id,
                    kind=spec.kind,
                    delay=spec.delay,
                    mode=spec.mode,
                )
        return None

    def events_for_round(self, round_idx: int, num_clients: int) -> Dict[int, FaultEvent]:
        """All faults of one round, keyed by client id."""
        out: Dict[int, FaultEvent] = {}
        for cid in range(num_clients):
            ev = self.event(round_idx, cid)
            if ev is not None:
                out[cid] = ev
        return out

    # -- CLI string grammar ------------------------------------------------
    @classmethod
    def from_spec(cls, spec: str, seed: int = 0) -> "FaultPlan":
        """Parse ``--faults`` strings into a plan.

        Grammar: comma-separated clauses, each
        ``kind=prob[:key=value]...`` with keys ``delay`` (straggler
        seconds), ``mode`` (``nan``/``zero``), ``rounds`` (``a-b``
        inclusive, or a single round), ``clients`` (``|``-separated ids).

        Examples::

            drop=0.2
            straggler=0.5:delay=0.02
            corrupt=0.3:mode=zero,crash=0.1:rounds=2-5
            drop=1.0:clients=0|3:rounds=4
        """
        specs: List[FaultSpec] = []
        for clause in spec.split(","):
            clause = clause.strip()
            if not clause:
                continue
            parts = clause.split(":")
            head = parts[0]
            if "=" not in head:
                raise ValueError(f"fault clause {clause!r} must start with kind=prob")
            kind, prob_s = head.split("=", 1)
            kwargs: Dict[str, Any] = {"kind": kind.strip(), "prob": float(prob_s)}
            for opt in parts[1:]:
                if "=" not in opt:
                    raise ValueError(f"fault option {opt!r} must be key=value")
                key, val = (s.strip() for s in opt.split("=", 1))
                if key == "delay":
                    kwargs["delay"] = float(val)
                elif key == "mode":
                    kwargs["mode"] = val
                elif key == "rounds":
                    lo, _, hi = val.partition("-")
                    kwargs["rounds"] = (int(lo), int(hi) if hi else int(lo))
                elif key == "clients":
                    kwargs["clients"] = frozenset(int(c) for c in val.split("|"))
                else:
                    raise ValueError(f"unknown fault option {key!r}")
            specs.append(FaultSpec(**kwargs))
        return cls(specs, seed=seed)

    def describe(self) -> str:
        clauses = []
        for s in self.specs:
            c = f"{s.kind}={s.prob}"
            if s.kind == STRAGGLER:
                c += f":delay={s.delay}"
            if s.kind == CORRUPT:
                c += f":mode={s.mode}"
            if s.rounds is not None:
                c += f":rounds={s.rounds[0]}-{s.rounds[1]}"
            if s.clients is not None:
                c += ":clients=" + "|".join(str(i) for i in sorted(s.clients))
            clauses.append(c)
        return ",".join(clauses) + f" (seed={self.seed})"

    def __repr__(self) -> str:  # pragma: no cover
        return f"FaultPlan({self.describe()})"


# ---------------------------------------------------------------------------
# payload helpers
# ---------------------------------------------------------------------------
def corrupt_payload(payload: Any, mode: str = "nan") -> Any:
    """Deep copy of ``payload`` with every float array NaN- or zero-filled.

    Integer arrays and scalars pass through unchanged (a transport-level
    bit flip on weights is what the fault models; index arrays staying
    valid keeps the failure at the *numeric* layer where the quarantine
    operates).
    """
    if mode not in CORRUPT_MODES:
        raise ValueError(f"corrupt mode must be one of {CORRUPT_MODES}")
    fill = np.nan if mode == "nan" else 0.0

    def visit(p: Any) -> Any:
        if isinstance(p, np.ndarray):
            if np.issubdtype(p.dtype, np.floating):
                return np.full_like(p, fill)
            return p.copy()
        if isinstance(p, dict):
            return {k: visit(v) for k, v in p.items()}
        if isinstance(p, (list, tuple)):
            return type(p)(visit(v) for v in p)
        return copy.deepcopy(p)

    return visit(payload)


def payload_is_finite(payload: Any) -> bool:
    """True when every numeric value in the (nested) payload is finite."""
    if payload is None:
        return True
    if isinstance(payload, np.ndarray):
        if np.issubdtype(payload.dtype, np.floating) or np.issubdtype(
            payload.dtype, np.complexfloating
        ):
            return bool(np.isfinite(payload).all())
        return True
    if isinstance(payload, (float, np.floating)):
        return bool(np.isfinite(payload))
    if isinstance(payload, dict):
        return all(payload_is_finite(v) for v in payload.values())
    if isinstance(payload, (list, tuple)):
        return all(payload_is_finite(v) for v in payload)
    return True


# ---------------------------------------------------------------------------
# the per-round injection + resilience policy
# ---------------------------------------------------------------------------
@dataclass
class ResiliencePolicy:
    """Server-side failure handling knobs (mirrored from TrainerConfig)."""

    client_timeout: Optional[float] = None
    client_retries: int = 0

    def __post_init__(self) -> None:
        if self.client_timeout is not None and self.client_timeout <= 0:
            raise ValueError("client_timeout must be positive (or None)")
        if self.client_retries < 0:
            raise ValueError("client_retries must be >= 0")


class FaultInjector:
    """Applies a :class:`FaultPlan` round by round and tracks exclusions.

    The trainer calls :meth:`begin_round` at each round start; the
    injector caches that round's events, immediately marks ``drop``
    clients as failed (they are unreachable for *every* phase), and from
    then on answers :meth:`is_failed` / :meth:`active` queries and runs
    guarded tasks via :class:`FaultingExecutor`.

    All telemetry flows through :mod:`repro.obs`: ``faults.injected``
    (every fault that fired, by kind), ``faults.excluded`` (clients
    removed from a round, by kind — includes the server-side
    ``quarantine`` reason), ``faults.recovered`` (retries that
    succeeded), and ``fault.recovery`` spans around the retry loop.
    """

    def __init__(
        self,
        plan: FaultPlan,
        policy: Optional[ResiliencePolicy] = None,
        clock: Optional[Clock] = None,
    ) -> None:
        self.plan = plan
        self.policy = policy or ResiliencePolicy()
        # Every injected wait (straggler delay, timeout) sleeps against
        # this clock.  The default is real time — a straggler genuinely
        # delays a barrier round — but tests (and the async engine, which
        # turns delays into event timestamps) pass a VirtualClock so fault
        # drills stop paying wall-clock.
        self.clock: Clock = clock if clock is not None else SystemClock()
        self.round = -1
        self._events: Dict[int, FaultEvent] = {}
        self._failed: Dict[int, str] = {}  # cid -> exclusion reason (fault kind)

    # -- round lifecycle ---------------------------------------------------
    def begin_round(self, round_idx: int, num_clients: int) -> None:
        self.round = round_idx
        self._events = self.plan.events_for_round(round_idx, num_clients)
        self._failed = {}
        for cid, ev in self._events.items():
            if ev.kind == DROP:
                self.record_injected(ev)
                self.mark_failed(cid, DROP)

    def event(self, client_id: int, kind: Optional[str] = None) -> Optional[FaultEvent]:
        ev = self._events.get(client_id)
        if ev is None or (kind is not None and ev.kind != kind):
            return None
        return ev

    def mark_failed(self, client_id: int, reason: str) -> None:
        if client_id not in self._failed:
            self._failed[client_id] = reason
            reg = get_registry()
            if reg.enabled:
                reg.counter("faults.excluded", kind=reason).inc()

    def is_failed(self, client_id: int) -> bool:
        return client_id in self._failed

    def active(self, clients: Sequence[T]) -> List[T]:
        """Filter a client sequence down to this round's reachable ones."""
        return [c for c in clients if not self.is_failed(c.cid)]

    # -- task guarding (straggler / crash / timeout / retry) ---------------
    def run_task(self, client, fn: Callable[[Any], R]):
        """Run one client task under the plan; returns ``FAILED`` on loss.

        Straggler delays sleep against the injector's clock (real time by
        default — they must show up in round wall-clock — virtual under
        test) and are capped at the timeout, so chaos tests with
        millisecond delays stay fast.  A timed-out attempt never runs
        ``fn`` — the simulated client missed the deadline, so its work
        is not applied — which keeps retries idempotent.
        """
        cid = client.cid
        if self.is_failed(cid):  # dropped at round start
            return FAILED
        ev = self._events.get(cid)
        if ev is None:
            return fn(client)
        if ev.kind == STRAGGLER:
            return self._run_straggler(client, fn, ev)
        if ev.kind == CRASH:
            fn(client)  # work happens, then the client dies: result lost
            self.record_injected(ev)
            self.mark_failed(cid, CRASH)
            return FAILED
        # drop is handled at begin_round; corrupt fires at upload time.
        return fn(client)

    def _run_straggler(self, client, fn: Callable[[Any], R], ev: FaultEvent):
        policy = self.policy
        timeout = policy.client_timeout
        self.record_injected(ev)
        if timeout is None or ev.delay <= timeout:
            self.clock.sleep(ev.delay)
            return fn(client)
        # Deadline exceeded: the attempt is abandoned before any work is
        # applied.  The delay is transient, so a retry succeeds; without
        # retries the client is excluded this round.
        self.clock.sleep(timeout)
        if policy.client_retries < 1:
            self.mark_failed(client.cid, STRAGGLER)
            return FAILED
        tracer = get_tracer()
        with tracer.span(
            "fault.recovery", client=client.cid, round=ev.round, kind=STRAGGLER
        ):
            result = fn(client)
        reg = get_registry()
        if reg.enabled:
            reg.counter("faults.recovered", kind=STRAGGLER).inc()
        return result

    # -- upload-time faults (used by FaultyCommunicator) -------------------
    def filter_uplink(self, client_id: int, payload: Any, kind: str) -> Any:
        """Apply drop/corrupt faults to one client→server transfer."""
        ev = self._events.get(client_id)
        if ev is None:
            return payload
        if ev.kind == DROP:
            raise ClientDropped(client_id)
        if ev.kind == CORRUPT and kind == KIND_WEIGHTS:
            self.record_injected(ev)
            return corrupt_payload(payload, ev.mode)
        return payload

    def record_injected(self, ev: Optional[FaultEvent]) -> None:
        """Count one fired fault (public: the async engine records at pop)."""
        if ev is None:
            return
        reg = get_registry()
        if reg.enabled:
            reg.counter("faults.injected", kind=ev.kind).inc()


class FaultingExecutor:
    """A :class:`ClientExecutor` front that injects faults into tasks.

    Drop-in for the executor's :meth:`map` over *clients*, with one
    difference: instead of propagating injected failures, it returns the
    surviving ``(client, result)`` pairs — the federated analogue of
    "the round completes with whoever answered".  Genuine (non-injected)
    exceptions still propagate: chaos must never mask real bugs.
    """

    def __init__(self, inner: ClientExecutor, injector: FaultInjector) -> None:
        self.inner = inner
        self.injector = injector

    def map_surviving(
        self,
        fn: Callable[[T], R],
        clients: Sequence[T],
        span: Optional[str] = None,
        attrs: Optional[Callable[[T], Dict[str, object]]] = None,
    ) -> List[Tuple[T, R]]:
        injector = self.injector
        results = self.inner.map(
            lambda c: injector.run_task(c, fn), clients, span=span, attrs=attrs
        )
        return [(c, r) for c, r in zip(clients, results) if r is not FAILED]


class FaultyCommunicator(Communicator):
    """Communicator whose uplink is subject to the fault plan.

    ``send_to_server`` consults the injector: a dropped client's
    transfer raises :class:`ClientDropped` *without metering any bytes*
    (the payload never crossed the wire); a corrupted client's payload
    is metered normally (the bytes moved — they were just garbage) and
    arrives NaN-/zero-filled.  Downlink and collectives are untouched:
    the server is assumed reliable, clients fail.
    """

    def __init__(self, num_clients: int, injector: FaultInjector) -> None:
        super().__init__(num_clients=num_clients)
        self.injector = injector

    def send_to_server(self, client_id: int, payload: Any, kind: str = KIND_OTHER) -> Any:
        if self.injector.event(client_id, DROP) is not None:
            self.injector.mark_failed(client_id, DROP)
            raise ClientDropped(client_id)
        received = super().send_to_server(client_id, payload, kind=kind)
        return self.injector.filter_uplink(client_id, received, kind)

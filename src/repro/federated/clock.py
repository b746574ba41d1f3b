"""Clock abstraction: real time for deployments, virtual time for tests.

Everything in the federated runtime that *waits* — straggler sleeps,
client timeouts, the async engine's event loop — goes through a
:class:`Clock` instead of the :mod:`time` module directly.  Two
implementations:

* :class:`SystemClock` — monotonic wall time and real ``sleep``.  The
  default for the barrier engine, where a straggler genuinely delays
  the round.
* :class:`VirtualClock` — a deterministic simulated timeline.  ``now``
  is a number the program advances explicitly; ``sleep`` advances it
  without blocking.  Two runs that schedule the same durations see the
  *identical* sequence of timestamps regardless of machine load, which
  is what makes the async engine's arrival schedules — and therefore
  its quorum decisions and staleness accounting — bit-reproducible.

The virtual clock is thread-safe (the barrier engine may sleep from
executor worker threads), but the async engine drives it from a single
coordinating thread: virtual time is a property of the *simulation*,
not of any OS thread.

No wall-clock (``time.time``) is read anywhere here: ``SystemClock``
builds on ``time.monotonic``, keeping lint rule RL003 satisfied.
"""

from __future__ import annotations

import threading
import time
from typing import Optional, Sequence


class ScheduleController:
    """Scheduling hook consulted at the runtime's annotated yield points.

    The async engine (and, in serial mode, the client executor) route
    every schedule-relevant decision — which pending report to pop next,
    which client task to run next — through the controller attached to
    the :class:`VirtualClock` driving the run.  The base implementation
    always picks candidate ``0``, which is exactly the uncontrolled
    behaviour (earliest-arrival pop order, submission-order task
    execution), so attaching it changes nothing.

    The model checker (``python -m repro.analysis.modelcheck``) subclasses
    this to force a specific interleaving: :meth:`choose` returns the
    index of the candidate to run, and :meth:`on_yield` observes each
    yield point as it is passed (the checker uses it to trace pop
    boundaries for replay and checkpoint-equivalence checks).  Both
    methods must be deterministic pure functions of the controller's own
    state — a controller that consults RNG or wall time would make the
    very nondeterminism the checker exists to rule out.
    """

    def choose(self, point: str, candidates: Sequence) -> int:
        """Index of the candidate to schedule next at yield point ``point``."""
        return 0

    def on_yield(self, point: str, **info) -> None:
        """Observe a yield point (no decision; tracing/snapshot hook)."""


class Clock:
    """Interface: a monotonic ``now`` and a ``sleep`` against it."""

    def now(self) -> float:
        raise NotImplementedError

    def sleep(self, seconds: float) -> None:
        raise NotImplementedError


class SystemClock(Clock):
    """Real time: monotonic reads, blocking sleeps."""

    def now(self) -> float:
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds)

    def __repr__(self) -> str:  # pragma: no cover
        return "SystemClock()"


class VirtualClock(Clock):
    """Deterministic simulated time.

    ``sleep(dt)`` advances the timeline by ``dt`` and returns
    immediately; ``advance_to(t)`` jumps forward to an absolute
    timestamp (backward jumps raise — virtual time is monotonic, like
    the real clock it stands in for).  ``elapsed`` is the total virtual
    time since construction (or the ``start`` passed in).
    """

    def __init__(self, start: float = 0.0) -> None:
        self._start = float(start)
        self._now = float(start)
        self._lock = threading.Lock()
        self._controller: Optional[ScheduleController] = None

    def attach_controller(self, controller: Optional[ScheduleController]) -> None:
        """Install (or clear) the schedule controller for this timeline.

        The controller rides on the clock because the clock is the one
        object every schedule-relevant component (engine, executor,
        fault injector) already shares: attaching here reaches all of
        them without new plumbing.
        """
        with self._lock:
            self._controller = controller

    @property
    def controller(self) -> Optional[ScheduleController]:
        with self._lock:
            return self._controller

    def now(self) -> float:
        with self._lock:
            return self._now

    def sleep(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("cannot sleep a negative duration")
        with self._lock:
            self._now += float(seconds)

    # ``advance`` reads more naturally than ``sleep`` at call sites that
    # move simulated time rather than model a waiting party.
    advance = sleep

    def advance_to(self, timestamp: float) -> None:
        """Jump to an absolute virtual timestamp (>= ``now``)."""
        with self._lock:
            if timestamp < self._now - 1e-12:
                raise ValueError(
                    f"virtual clock cannot run backward ({timestamp} < {self._now})"
                )
            if timestamp > self._now:
                self._now = float(timestamp)

    @property
    def elapsed(self) -> float:
        """Virtual seconds since construction."""
        with self._lock:
            return self._now - self._start

    def __repr__(self) -> str:  # pragma: no cover
        return f"VirtualClock(now={self.now():.6f})"

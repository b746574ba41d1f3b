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
builds on ``time.monotonic``, which NTP steps cannot move backwards.
"""

from __future__ import annotations

import threading
import time


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

"""Span-based tracing for the federated training loop.

A :class:`Span` is one timed section — ``round``, ``exchange``,
``client.local_train`` — with monotonic start/end timestamps, a unique
id, an optional parent id (giving the nesting tree), and free-form
attributes (``round=3``, ``client=1``).  A :class:`Tracer` hands out
spans and records one event per span as it closes.

Nesting: each *thread* keeps its own current-span stack, so spans opened
on the coordinating thread nest naturally, while
:class:`~repro.federated.executor.ClientExecutor` worker threads attach
their task spans to an explicitly passed ``parent`` (the executor
captures the submitting thread's current span at ``map`` time).  Event
recording is lock-guarded, so concurrent span closure from worker
threads loses no events.

The default tracer is :data:`NULL_TRACER`: its spans still carry
``perf_counter`` timestamps — :class:`repro.federated.trainer.
FederatedTrainer` reads phase durations off them for ``RoundRecord``
whether or not telemetry is on — but nothing is buffered and no ids are
allocated, which is what makes instrumentation zero-cost-when-disabled.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional


class Span:
    """One timed section; use as a context manager."""

    __slots__ = ("name", "span_id", "parent_id", "attrs", "t_start", "t_end", "_tracer")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        span_id: int,
        parent_id: Optional[int],
        attrs: Dict[str, object],
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.attrs = attrs
        self.t_start = time.perf_counter()
        self.t_end: Optional[float] = None

    @property
    def duration(self) -> float:
        """Seconds from start to end (to *now* while still open)."""
        end = self.t_end if self.t_end is not None else time.perf_counter()
        return end - self.t_start

    def __enter__(self) -> "Span":
        self._tracer._push(self)
        return self

    def __exit__(self, *exc) -> None:
        self.t_end = time.perf_counter()
        self._tracer._pop(self)
        self._tracer._record(self)

    def __repr__(self) -> str:  # pragma: no cover
        state = f"{self.duration:.6f}s" if self.t_end is not None else "open"
        return f"Span({self.name!r}, id={self.span_id}, {state})"


class Tracer:
    """Produces nested spans and buffers one event per closed span."""

    enabled = True

    def __init__(self) -> None:
        self.t0 = time.perf_counter()
        self._lock = threading.Lock()
        self._next_id = 1
        self._events: List[Dict[str, object]] = []
        self._open: Dict[int, Span] = {}
        self._listeners: List[object] = []
        self._local = threading.local()

    # -- span lifecycle ---------------------------------------------------
    def span(self, name: str, parent: Optional[Span] = None, **attrs) -> Span:
        """New span under ``parent`` (default: this thread's current span)."""
        if parent is None:
            parent = self.current()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        parent_id = parent.span_id if parent is not None else None
        return Span(self, name, span_id, parent_id, attrs)

    def current(self) -> Optional[Span]:
        """This thread's innermost open span (``None`` at top level)."""
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def _push(self, span: Span) -> None:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        stack.append(span)
        with self._lock:
            self._open[span.span_id] = span
            listeners = list(self._listeners) if self._listeners else None
        if listeners:
            for listener in listeners:
                listener.on_span_open(span)

    def _pop(self, span: Span) -> None:
        stack = getattr(self._local, "stack", None)
        if stack and stack[-1] is span:
            stack.pop()

    def _record(self, span: Span) -> None:
        event = {
            "type": "span",
            "name": span.name,
            "span_id": span.span_id,
            "parent_id": span.parent_id,
            "t_start": span.t_start - self.t0,
            "t_end": span.t_end - self.t0,
            "dur": span.t_end - span.t_start,
            "thread": threading.current_thread().name,
            "attrs": dict(span.attrs),
        }
        with self._lock:
            self._events.append(event)
            self._open.pop(span.span_id, None)
            listeners = list(self._listeners) if self._listeners else None
        if listeners:
            for listener in listeners:
                listener.on_span_close(span)

    # -- listeners --------------------------------------------------------
    def add_listener(self, listener: object) -> None:
        """Register an object with ``on_span_open(span)`` / ``on_span_close(span)``.

        Listeners fire outside the tracer lock (they may read the
        registry or ``/proc``); the memory profiler is the consumer.
        """
        with self._lock:
            self._listeners.append(listener)

    def remove_listener(self, listener: object) -> None:
        with self._lock:
            if listener in self._listeners:
                self._listeners.remove(listener)

    # -- event access -----------------------------------------------------
    def events(self) -> List[Dict[str, object]]:
        """Snapshot of recorded span events (completion order)."""
        with self._lock:
            return list(self._events)

    def open_spans(self) -> List[Span]:
        """Spans entered but not yet exited, in id (creation) order."""
        with self._lock:
            return [self._open[sid] for sid in sorted(self._open)]

    def open_span_events(self) -> List[Dict[str, object]]:
        """Span events for never-closed spans, with explicit semantics.

        A span that never exited has no end: its event carries
        ``"open": true``, ``"t_end": null``, and ``dur`` equal to
        :attr:`Span.duration` *at export time* (elapsed so far) — the
        export makes the open-endedness explicit rather than leaving the
        span silently absent from the trace.
        """
        return [
            {
                "type": "span",
                "name": span.name,
                "span_id": span.span_id,
                "parent_id": span.parent_id,
                "t_start": span.t_start - self.t0,
                "t_end": None,
                "dur": span.duration,
                "open": True,
                "thread": threading.current_thread().name,
                "attrs": dict(span.attrs),
            }
            for span in self.open_spans()
        ]

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def clear(self) -> None:
        with self._lock:
            self._events.clear()


class NullTracer(Tracer):
    """Spans still time themselves; nothing is allocated or buffered."""

    enabled = False

    def span(self, name: str, parent: Optional[Span] = None, **attrs) -> Span:
        return Span(self, name, 0, None, attrs)

    def current(self) -> Optional[Span]:
        return None

    def _push(self, span: Span) -> None:
        pass

    def _pop(self, span: Span) -> None:
        pass

    def _record(self, span: Span) -> None:
        pass


NULL_TRACER = NullTracer()

_default_tracer: Tracer = NULL_TRACER
_default_lock = threading.Lock()


def get_tracer() -> Tracer:
    """The process-local default tracer (null unless telemetry is on)."""
    return _default_tracer


def set_tracer(tracer: Optional[Tracer]) -> Tracer:
    """Install ``tracer`` (``None`` → the null tracer); returns the old."""
    global _default_tracer
    with _default_lock:
        old = _default_tracer
        _default_tracer = tracer if tracer is not None else NULL_TRACER
    return old

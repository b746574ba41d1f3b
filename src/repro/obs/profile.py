"""Phase-scoped profiler: flamegraph folded stacks + memory high-water.

Two views on top of the span tracer:

* :func:`folded_stacks` collapses the recorded span tree into the
  classic ``stack;frames value`` flamegraph format (Gregg's
  ``flamegraph.pl`` / speedscope / inferno all consume it).  Each span's
  *self time* — its duration minus the time covered by its children —
  is attributed to the semicolon-joined path of span names from the
  root, and identical paths merge (all ``round`` spans collapse into one
  frame), which is exactly what makes a flamegraph readable across many
  rounds.
* :class:`MemoryProfiler` arms :mod:`tracemalloc` and, via tracer span
  listeners, records the allocation high-water mark of every round phase
  (``exchange`` / ``train`` / ``aggregate`` / ``eval``): the peak is
  reset when a phase span opens and read when it closes, and the maximum
  across rounds lands in ``profile.mem_peak_bytes{phase=...}`` gauges.
  tracemalloc costs real time (it hooks every allocation), which is part
  of why the whole profiler is opt-in.

:class:`ProfileSession` bundles the full profiling stack — a
:class:`~repro.obs.TelemetrySession`, the
:class:`~repro.obs.cost.CostCollector`, and the memory profiler — behind
one context manager, and is what the train/experiments CLIs install for
``--profile``.  Profiling reads timestamps, shapes and allocation
counters only: a profiled run's training history is bitwise identical
to an unprofiled one (pinned by ``tests/obs/test_profile.py``).
"""

from __future__ import annotations

import os
import tracemalloc
from collections import defaultdict
from typing import Dict, List, Optional, Sequence

from repro.obs import TelemetrySession
from repro.obs.cost import CostCollector, set_collector
from repro.obs.export import write_jsonl
from repro.obs.trace import Span

#: The sibling round phases whose memory high-water is tracked.  They
#: never nest within each other, so resetting the (global) tracemalloc
#: peak at phase open cannot corrupt an enclosing tracked phase.
MEMORY_PHASES = ("exchange", "train", "aggregate", "eval")


def folded_stacks(events: Sequence[dict]) -> Dict[str, float]:
    """Collapse span events into ``path → self-time-seconds``.

    ``path`` is the semicolon-joined chain of span *names* from the root
    (attrs are dropped so rounds/clients merge into one frame).  Spans
    whose parent is missing from ``events`` (still open at export, or a
    truncated trace) root their own stack.  Self time is clamped at zero:
    a child that outlives its parent (worker task finishing after the
    submitting span) cannot produce negative frames.
    """
    span_events = [
        e
        for e in events
        if e.get("type") == "span" and isinstance(e.get("dur"), (int, float))
    ]
    by_id = {e["span_id"]: e for e in span_events if e.get("span_id")}
    child_time: Dict[int, float] = defaultdict(float)
    for e in span_events:
        pid = e.get("parent_id")
        if pid in by_id:
            child_time[pid] += e["dur"]

    def path_of(e: dict) -> str:
        names: List[str] = []
        seen = set()
        node: Optional[dict] = e
        while node is not None and node["span_id"] not in seen:
            seen.add(node["span_id"])
            names.append(node["name"])
            node = by_id.get(node.get("parent_id"))
        return ";".join(reversed(names))

    folded: Dict[str, float] = defaultdict(float)
    for e in span_events:
        self_time = max(e["dur"] - child_time.get(e.get("span_id"), 0.0), 0.0)
        folded[path_of(e)] += self_time
    return dict(folded)


def write_folded(path: str, events: Sequence[dict]) -> int:
    """Write a ``.folded`` flamegraph file; returns the line count.

    Values are integer microseconds (flamegraph tooling expects integer
    sample counts); zero-valued stacks are kept so every span path stays
    visible in the output.
    """
    folded = folded_stacks(events)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        for stack in sorted(folded):
            f.write(f"{stack} {int(round(folded[stack] * 1e6))}\n")
    return len(folded)


def top_frames(events: Sequence[dict], k: int = 10) -> List[tuple]:
    """The ``k`` hottest frames: ``(path, self_seconds)`` descending."""
    folded = folded_stacks(events)
    return sorted(folded.items(), key=lambda kv: (-kv[1], kv[0]))[:k]


class MemoryProfiler:
    """Per-phase allocation high-water marks via tracemalloc.

    Registered as a tracer span listener: tracked phase spans reset the
    tracemalloc peak on open and harvest it on close.  Phase spans run
    only on the coordinator thread (worker tasks live *inside* the
    ``train``/``eval`` phases), so open/close pairs cannot interleave.
    """

    def __init__(self, phases: Sequence[str] = MEMORY_PHASES) -> None:
        self.phases = tuple(phases)
        self.peaks: Dict[str, int] = {}
        self._owns_tracemalloc = False
        self._started = False

    def start(self) -> None:
        if self._started:
            return
        self._owns_tracemalloc = not tracemalloc.is_tracing()
        if self._owns_tracemalloc:
            tracemalloc.start()
        self._started = True

    def stop(self) -> None:
        if not self._started:
            return
        if self._owns_tracemalloc and tracemalloc.is_tracing():
            tracemalloc.stop()
        self._started = False

    # -- tracer listener protocol -----------------------------------------
    def on_span_open(self, span: Span) -> None:
        if self._started and span.name in self.phases:
            tracemalloc.reset_peak()

    def on_span_close(self, span: Span) -> None:
        if self._started and span.name in self.phases:
            _, peak = tracemalloc.get_traced_memory()
            if peak > self.peaks.get(span.name, -1):
                self.peaks[span.name] = int(peak)

    def flush_gauges(self, registry) -> None:
        """Write the high-water marks into ``profile.mem_peak_bytes`` gauges."""
        for phase, peak in sorted(self.peaks.items()):
            registry.gauge("profile.mem_peak_bytes", phase=phase).set(peak)


class ProfileSession:
    """Telemetry + cost model + flamegraph + memory profiling.

    Entering installs a :class:`~repro.obs.TelemetrySession` (fresh
    registry + tracer as the process defaults), the
    :class:`~repro.obs.cost.CostCollector` bound to them, and a
    tracemalloc :class:`MemoryProfiler` listening on phase spans.
    Exiting tears all of it down and writes:

    * ``jsonl_path`` — the full ``repro.obs/v2`` trace (spans including
      open ones, cost counters, memory gauges, and one ``profile`` event
      carrying the folded stacks);
    * ``folded_path`` — the same collapsed stacks as a flamegraph
      ``.folded`` file.

    Either path may be ``None`` to skip that output; :meth:`report`
    renders the run report (phase costs, arithmetic intensity, top
    frames, memory high-water) from the captured events.
    """

    def __init__(
        self,
        jsonl_path: Optional[str] = None,
        folded_path: Optional[str] = None,
        **meta,
    ) -> None:
        self.jsonl_path = jsonl_path
        self.folded_path = folded_path
        self.telemetry = TelemetrySession(jsonl_path=None, profile=True, **meta)
        self.collector = CostCollector(self.telemetry.registry, self.telemetry.tracer)
        self.memory = MemoryProfiler()
        self._prev_collector: Optional[CostCollector] = None
        self._installed = False

    # -- lifecycle ---------------------------------------------------------
    def install(self) -> "ProfileSession":
        if self._installed:
            raise RuntimeError("profile session already installed")
        self.telemetry.install()
        self._prev_collector = set_collector(self.collector)
        self.memory.start()
        self.telemetry.tracer.add_listener(self.memory)
        self._installed = True
        return self

    def uninstall(self) -> None:
        if not self._installed:
            return
        self.telemetry.tracer.remove_listener(self.memory)
        self.memory.stop()
        self.memory.flush_gauges(self.telemetry.registry)
        set_collector(self._prev_collector)
        self.telemetry.uninstall()
        self._installed = False

    def __enter__(self) -> "ProfileSession":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()
        self.save()

    # -- output ------------------------------------------------------------
    def events(self) -> List[dict]:
        """Telemetry events plus the ``profile`` folded-stack event."""
        events = self.telemetry.events()
        events.append({"type": "profile", "folded": folded_stacks(events)})
        return events

    def save(self) -> None:
        """Write whichever of the JSONL trace / folded file were requested."""
        events = self.events()
        if self.jsonl_path is not None:
            parent = os.path.dirname(self.jsonl_path)
            if parent:
                os.makedirs(parent, exist_ok=True)
            write_jsonl(self.jsonl_path, events)
        if self.folded_path is not None:
            write_folded(self.folded_path, events)

    def report(self) -> str:
        """The text run report for the captured events."""
        from repro.reporting.telemetry import render_run_report

        return render_run_report(self.events())

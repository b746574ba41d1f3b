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
* :class:`MemoryProfiler` records, via tracer span listeners, the RSS
  high-water mark of every round phase (``exchange`` / ``train`` /
  ``aggregate`` / ``eval``): the kernel's peak (``VmHWM``) is reset when
  a phase span opens and read when it closes, and the maximum across
  rounds lands in ``profile.mem_peak_bytes{phase=...}`` gauges.  One
  reset plus one read is a few tens of microseconds per phase, not a
  cost per allocation.

:class:`ProfileSession` is a :class:`~repro.obs.TelemetrySession` that
adds the :class:`~repro.obs.cost.CostCollector`, the memory profiler and
the folded-stack outputs, and is what the train/experiments CLIs install
for ``--profile`` (:func:`cli_session` picks it).  Profiling reads
timestamps, shapes and the kernel's RSS counters only: a profiled run's
training history is bitwise identical to an unprofiled one (pinned by
``tests/obs/test_profile.py``).
"""

from __future__ import annotations

import os
from collections import defaultdict
from typing import Dict, List, Optional, Sequence

from repro.obs import TelemetrySession
from repro.obs.cost import CostCollector, set_collector
from repro.obs.trace import Span

#: The sibling round phases whose memory high-water is tracked.  They
#: never nest within each other, so resetting the (process-wide) peak at
#: phase open cannot corrupt an enclosing tracked phase.
MEMORY_PHASES = ("exchange", "train", "aggregate", "eval")
#: Writing ``5`` here resets the process's ``VmHWM`` to its current RSS.
CLEAR_REFS = "/proc/self/clear_refs"
STATUS = "/proc/self/status"


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




def _read_hwm_bytes() -> int:
    """The process's ``VmHWM`` (peak resident set size) in bytes."""
    with open(STATUS, "rb") as f:
        for line in f:
            if line.startswith(b"VmHWM:"):
                return int(line.split()[1]) * 1024
    raise OSError(f"no VmHWM line in {STATUS}")


class MemoryProfiler:
    """Per-phase RSS high-water marks from the kernel.

    Registered as a tracer span listener: a tracked phase span writes
    ``5`` to :data:`CLEAR_REFS` on open, which resets the process's
    ``VmHWM`` to its current RSS, and reads ``VmHWM`` on close.  This is
    the figure ``ru_maxrss`` reports, so the profile measures what the
    memory gate and fedbench's ``peak_rss_mb`` gate; a side effect is
    that after a profiled phase, ``ru_maxrss`` only covers the time since
    that phase opened.  Phase spans run only on the coordinator thread
    (worker tasks live *inside* the ``train``/``eval`` phases), so
    open/close pairs cannot interleave.

    Where the reset or the read fails, :attr:`unavailable` names why and
    no peak is reported at all: a half-measured run would understate.
    """

    def __init__(self) -> None:
        self.peaks: Dict[str, int] = {}
        self.unavailable: Optional[str] = None

    # -- tracer listener protocol -----------------------------------------
    def on_span_open(self, span: Span) -> None:
        if self.unavailable is None and span.name in MEMORY_PHASES:
            try:
                with open(CLEAR_REFS, "w") as f:
                    f.write("5")
            except OSError as e:
                self.unavailable = f"cannot write {CLEAR_REFS}: {e.strerror or e}"

    def on_span_close(self, span: Span) -> None:
        if self.unavailable is None and span.name in MEMORY_PHASES:
            try:
                peak = _read_hwm_bytes()
            except OSError as e:
                self.unavailable = f"cannot read VmHWM: {e.strerror or e}"
                return
            if peak > self.peaks.get(span.name, -1):
                self.peaks[span.name] = peak

    def flush_gauges(self, registry) -> None:
        """Write the high-water marks into ``profile.mem_peak_bytes`` gauges."""
        if self.unavailable is not None:
            return
        for phase, peak in sorted(self.peaks.items()):
            registry.gauge("profile.mem_peak_bytes", phase=phase).set(peak)


class ProfileSession(TelemetrySession):
    """Telemetry + cost model + flamegraph + memory profiling.

    A :class:`~repro.obs.TelemetrySession` that, while installed, also
    binds a :class:`~repro.obs.cost.CostCollector` to its registry and
    tracer and listens on phase spans with a :class:`MemoryProfiler`.
    Its events gain one ``profile`` event carrying the folded stacks
    (and ``memory_unavailable`` when the high-water could not be read),
    and saving also writes ``folded_path``, a flamegraph ``.folded``
    file.  Either path may be ``None`` to skip that output;
    :meth:`report` renders the run report (phase costs, arithmetic
    intensity, top frames, memory high-water) from the captured events.
    """

    def __init__(
        self,
        jsonl_path: Optional[str] = None,
        folded_path: Optional[str] = None,
        **meta,
    ) -> None:
        super().__init__(jsonl_path, profile=True, **meta)
        self.folded_path = folded_path
        self.collector = CostCollector(self.registry, self.tracer)
        self.memory = MemoryProfiler()
        self._prev_collector: Optional[CostCollector] = None

    def install(self) -> "ProfileSession":
        super().install()
        self._prev_collector = set_collector(self.collector)
        self.tracer.add_listener(self.memory)
        return self

    def uninstall(self) -> None:
        if not self._installed:
            return
        self.tracer.remove_listener(self.memory)
        self.memory.flush_gauges(self.registry)
        set_collector(self._prev_collector)
        super().uninstall()

    def _has_output(self) -> bool:
        return super()._has_output() or self.folded_path is not None

    def events(self) -> List[dict]:
        """Telemetry events plus the ``profile`` folded-stack event."""
        events = super().events()
        profile = {"type": "profile", "folded": folded_stacks(events)}
        if self.memory.unavailable is not None:
            profile["memory_unavailable"] = self.memory.unavailable
        events.append(profile)
        return events

    def save(self, path: Optional[str] = None) -> int:
        """Write the folded file (if requested) and the JSONL trace (if any path)."""
        if self.folded_path is not None:
            write_folded(self.folded_path, self.events())
        if (path or self.jsonl_path) is None:
            return 0
        return super().save(path)

    def report(self) -> str:
        """The text run report for the captured events."""
        from repro.reporting.telemetry import render_run_report

        return render_run_report(self.events())

    def summary(self) -> str:
        lines = [self.report(), f"\n[profile] flamegraph folded stacks → {self.folded_path}"]
        if self.jsonl_path is not None:
            lines.append(f"[profile] JSONL trace → {self.jsonl_path}")
        return "\n".join(lines)


def cli_session(
    telemetry: Optional[str], profile: bool, folded_path: str, **meta
) -> Optional[TelemetrySession]:
    """The session the ``--telemetry PATH`` / ``--profile`` flags ask for.

    ``--profile`` wins (and still writes the trace to ``telemetry`` when
    given); neither flag gives ``None``.  Print :meth:`summary` after the
    session exits for the CLI's trailer.
    """
    if profile:
        return ProfileSession(jsonl_path=telemetry, folded_path=folded_path, **meta)
    if telemetry:
        return TelemetrySession(telemetry, **meta)
    return None

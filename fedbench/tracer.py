"""In-memory span tracer and per-round self-time analysis.

Spans are opened by the benchmark's own wrappers around the program's
public functions (see ``probes.py``); nothing inside ``src/`` records
them.  Each span carries a name, start and end times, the span that
caused it, and the communication round it belongs to.  A round's root
span runs from one ``begin_round`` call to the next (the last round ends
when ``run()`` returns), so every span opened during the round hangs
somewhere below that root.

Self time is a span's duration minus the part of its interval covered by
child spans.  Children of one parent normally run one after another on
the same thread; the exception is a threaded executor map, whose tasks
overlap on worker threads.  There each child's subtree is scaled by
``covered / summed child durations``, so self times stay shares of wall
time and the self times of a round add up to the round's wall time.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional

ROUND = "round"


class Span:
    __slots__ = ("name", "parent", "round", "t0", "t1", "flops")

    def __init__(self, name: str, parent: Optional["Span"], round_idx: Optional[int]) -> None:
        self.name = name
        self.parent = parent
        self.round = round_idx
        self.t0 = time.perf_counter()
        self.t1 = self.t0
        self.flops = 0

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


class Tracer:
    """Records spans per thread; spans of one round share its root span.

    ``open`` picks the parent in this order: the explicit ``parent``, the
    innermost open span on the calling thread, the innermost open
    executor map (for worker threads, whose stacks start empty), and the
    open round root.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.rounds: List[Span] = []
        self._local = threading.local()
        self._round: Optional[Span] = None
        self._maps: List[Span] = []
        self._main = threading.get_ident()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, parent: Optional[Span] = None) -> Span:
        stack = self._stack()
        if parent is None:
            if stack:
                parent = stack[-1]
            elif self._maps and threading.get_ident() != self._main:
                parent = self._maps[-1]
            else:
                parent = self._round
        span = Span(name, parent, parent.round if parent is not None else None)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.t1 = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def push_map(self, span: Span) -> None:
        self._maps.append(span)

    def pop_map(self) -> None:
        self._maps.pop()

    def begin_round(self, round_idx: int) -> None:
        """Close the open round root (if any) and open the next one."""
        self.end_round()
        self._round = Span(ROUND, None, round_idx)

    def end_round(self) -> None:
        if self._round is not None:
            self._round.t1 = time.perf_counter()
            self.rounds.append(self._round)
            self._round = None


@dataclass
class RoundStats:
    """One round's attribution, all times in wall-clock seconds."""

    wall: float
    #: weighted self time per span name (sums to ``wall``)
    self_s: Dict[str, float] = field(default_factory=lambda: defaultdict(float))
    #: weighted inclusive time per span name
    incl_s: Dict[str, float] = field(default_factory=lambda: defaultdict(float))
    #: unweighted (thread) duration per span name, for achieved FLOP rates
    thread_s: Dict[str, float] = field(default_factory=lambda: defaultdict(float))
    #: longest single span per name
    max_s: Dict[str, float] = field(default_factory=lambda: defaultdict(float))
    flops: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    calls: Dict[str, int] = field(default_factory=lambda: defaultdict(int))


def covered_length(intervals: List[tuple], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def analyze(tracer: Tracer) -> Dict[int, RoundStats]:
    """Self/inclusive time per span name for every closed round."""
    children: Dict[Span, List[Span]] = defaultdict(list)
    for span in tracer.spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out: Dict[int, RoundStats] = {}
    for root in tracer.rounds:
        stats = RoundStats(wall=root.duration)
        # Iterative walk: (span, weight) pairs.
        todo = [(root, 1.0)]
        while todo:
            span, weight = todo.pop()
            kids = children.get(span, ())
            dur = span.duration
            covered = covered_length([(k.t0, k.t1) for k in kids], span.t0, span.t1)
            stats.self_s[span.name] += weight * (dur - covered)
            stats.incl_s[span.name] += weight * dur
            stats.thread_s[span.name] += dur
            stats.max_s[span.name] = max(stats.max_s[span.name], dur)
            stats.flops[span.name] += span.flops
            stats.calls[span.name] += 1
            summed = sum(k.duration for k in kids)
            scale = covered / summed if summed > covered else 1.0
            todo.extend((k, weight * scale) for k in kids)
        out[root.round] = stats
    return out

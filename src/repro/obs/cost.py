"""Deterministic cost model: exact FLOP and byte accounting per op.

Wall time tells you *that* a phase is slow; it cannot tell you whether
the phase is compute-bound, memory-bound, or just mis-cached — and it is
not comparable across machines, which is what a committed bench
trajectory needs.  This module gives every autograd op a closed-form
cost: floating-point operations and bytes moved, computed from operand
shapes alone.  Counts are **exact by construction** (a pure function of
the op sequence and shapes, never sampled), so tests assert them against
hand-computed values and a profiled run on machine A is comparable to
one on machine B.

Cost formulas (``d``-column dense operands, ``nnz``-entry sparse) are
declared once per op in :mod:`repro.autograd.signatures`; an op with no
declaration raises ``KeyError`` at its first recording, and the
trace-check test (``tests/analysis/test_shapes.py``) compares the
collected per-layer counts with the formulas on every model:

=================  ==========================  ===========================
op                 forward FLOPs               backward FLOPs (per parent
                                               that requires grad)
=================  ==========================  ===========================
``matmul``         ``2·m·k·n``                 ``2·m·k·n``
``spmm``           ``2·nnz·d``                 ``2·nnz·d``
elementwise        ``out.size``                ``out.size``
reductions         ``parent.size``             ``out-broadcast = p.size``
``*softmax``       ``4·out.size``              ``3·out.size``
shape/index ops    ``0``                       ``0``
=================  ==========================  ===========================

Bytes moved are the operand + result footprints: forward reads every
parent and writes the output; backward reads the output gradient and
writes one gradient per grad-requiring parent.  ``spmm`` charges
``nnz`` stored entries of the sparse operand at their own value and
column-index sizes (12 bytes each for float64 values and int32
indices, 8 for float32) in both directions.

Attribution: each recorded cost lands in tag-keyed registry counters
``cost.flops`` / ``cost.bytes`` with the dimensions the profiler reports
over — ``op``, ``dir`` (``fwd``/``bwd``), ``phase`` and ``client`` read
from the active trace span, and ``layer`` from the innermost
:meth:`CostCollector.layer` scope (entered by ``nn.Module.__call__``).

The collector is ``None`` by default — the hot paths in
:mod:`repro.autograd.tensor` and :mod:`repro.autograd.ops_matmul` pay a
single ``is None`` test per op, the same zero-cost-when-off contract as
the sanitizer hook — and is installed by
:class:`repro.obs.profile.ProfileSession`.  Recording only ever *reads*
shapes and the span stack, so profiled histories stay bitwise identical
to unprofiled ones.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Optional, Tuple

from repro.autograd import signatures as _sig
from repro.autograd.signatures import (  # re-exported: the shared source of truth
    EXPLICIT_OPS,
    matmul_flops,
    spmm_flops,
    spmm_bytes,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer


class _LayerScope:
    """``with`` scope pushing one layer name on a thread's layer stack."""

    __slots__ = ("stack", "name")

    def __init__(self, stack: list, name: str) -> None:
        self.stack = stack
        self.name = name

    def __enter__(self) -> None:
        self.stack.append(self.name)

    def __exit__(self, *exc) -> None:
        self.stack.pop()


class CostCollector:
    """Accumulates exact op costs into tag-keyed registry counters.

    Thread-safety: each thread keeps its own layer stack and its own
    ``(op, dir, phase, client, layer)`` → counters cache, so the per-op
    hit path takes no lock; a miss asks the registry, which hands every
    thread the same lock-guarded :class:`~repro.obs.metrics.Counter`
    for the same tags, so worker threads record concurrently.
    """

    def __init__(self, registry: MetricsRegistry, tracer: Tracer) -> None:
        self.registry = registry
        self.tracer = tracer
        self._local = threading.local()

    # -- attribution -------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "layers", None)
        if stack is None:
            stack = self._local.layers = []
        return stack

    def layer(self, name: str) -> _LayerScope:
        """Scope ops to a named layer (entered by ``Module.__call__``)."""
        return _LayerScope(self._stack(), name)

    def _span_tags(self) -> Tuple[str, str]:
        """(phase, client) of the active span — ``-`` when unattributed."""
        span = self.tracer.current()
        if span is None:
            return "-", "-"
        attrs = span.attrs
        phase = str(attrs.get("phase", span.name))
        client = str(attrs.get("client", "-"))
        return phase, client

    # -- recording ---------------------------------------------------------
    def _counters(self, op: str, direction: str):
        phase, client = self._span_tags()
        stack = self._stack()
        key = (op, direction, phase, client, stack[-1] if stack else "-")
        cache = getattr(self._local, "counters", None)
        if cache is None:
            cache = self._local.counters = {}
        pair = cache.get(key)
        if pair is None:
            tags = dict(op=key[0], dir=key[1], phase=key[2], client=key[3], layer=key[4])
            pair = cache[key] = (
                self.registry.counter("cost.flops", **tags),
                self.registry.counter("cost.bytes", **tags),
            )
        return pair

    def record(self, op: str, direction: str, flops: int, bytes_moved: int) -> None:
        """Accumulate one op's cost under the active attribution tags."""
        flops_c, bytes_c = self._counters(op, direction)
        flops_c.inc(int(flops))
        bytes_c.inc(int(bytes_moved))

    def forward_op(self, op: str, out_data, parents: Tuple) -> None:
        """Generic shape-based forward cost (called from ``Tensor._make``)."""
        if op in EXPLICIT_OPS or not op:
            return
        parent_datas = tuple(p.data for p in parents)
        flops = _sig.forward_flops(op, out_data, parent_datas)
        moved = _sig.forward_bytes(out_data, parent_datas)
        self.record(op, "fwd", flops, moved)

    def backward_op(self, node) -> None:
        """Generic backward cost for one graph node (``Tensor.backward``)."""
        op = node._op
        if op in EXPLICIT_OPS or not op:
            return
        grad_datas = tuple(p.data for p in node._parents if p.requires_grad)
        if not grad_datas:
            return
        parent_datas = tuple(p.data for p in node._parents)
        flops = _sig.backward_flops(op, node.data, parent_datas, grad_datas)
        moved = _sig.backward_bytes(node.data, grad_datas)
        self.record(op, "bwd", flops, moved)

    def spmm_op(self, direction: str, s, dense, out) -> None:
        """Exact SpMM cost of ``s @ dense`` (called from the ``spmm`` op site, fwd and bwd)."""
        self.record(
            "spmm",
            direction,
            spmm_flops(s.nnz, int(dense.shape[1])),
            spmm_bytes(s, int(dense.nbytes), int(out.nbytes)),
        )


# The process-local collector.  Hot paths read the module global
# directly (one attribute load + `is None` test per op); everything else
# goes through get/set below.
_collector: Optional[CostCollector] = None
_collector_lock = threading.Lock()


def get_collector() -> Optional[CostCollector]:
    """The installed cost collector, or ``None`` (profiling off)."""
    return _collector


def set_collector(collector: Optional[CostCollector]) -> Optional[CostCollector]:
    """Install ``collector`` as the process default; returns the old one."""
    global _collector
    with _collector_lock:
        old = _collector
        _collector = collector
    return old


@contextlib.contextmanager
def collecting(registry: MetricsRegistry, tracer: Tracer):
    """Install a fresh collector for a ``with`` block (tests, sessions)."""
    collector = CostCollector(registry, tracer)
    prev = set_collector(collector)
    try:
        yield collector
    finally:
        set_collector(prev)


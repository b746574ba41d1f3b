"""Telemetry subsystem: structured metrics, span tracing, JSONL traces.

Three layers (DESIGN: docs/ARCHITECTURE.md, "The telemetry layer"):

* :mod:`repro.obs.metrics` — counters, gauges, streaming histograms in a
  :class:`MetricsRegistry`;
* :mod:`repro.obs.trace` — a thread-safe :class:`Tracer` of nested
  :class:`Span`\\ s;
* :mod:`repro.obs.export` — the JSONL event schema, writer, reader and
  validator.

The defaults (:func:`get_registry` / :func:`get_tracer`) are no-ops, so
the instrumentation living permanently inside ``repro.federated``,
``repro.core``, ``repro.nn`` and ``repro.autograd`` costs nothing until
a :class:`TelemetrySession` is entered::

    from repro.obs import TelemetrySession

    with TelemetrySession("run.jsonl", experiment="table3") as tel:
        trainer = FedOMDTrainer(parts, cfg, seed=0)
        trainer.run()
    # run.jsonl now holds one meta event, every span, every metric.

Telemetry never perturbs training: it reads timestamps and already-
computed values, touches no RNG, and histories with a session active
are ``metrics_equal`` to histories without one (asserted by
``tests/obs/test_telemetry_integration.py``).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.obs.export import (
    SCHEMA_VERSION,
    read_jsonl,
    validate_event,
    validate_events,
    write_jsonl,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    MetricsRegistry,
    NullMetricsRegistry,
    NULL_REGISTRY,
    StreamingHistogram,
    get_registry,
    metric_key,
    set_registry,
)
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    get_tracer,
    set_tracer,
)

__all__ = [
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "NULL_REGISTRY",
    "StreamingHistogram",
    "get_registry",
    "metric_key",
    "set_registry",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Tracer",
    "get_tracer",
    "set_tracer",
    "SCHEMA_VERSION",
    "read_jsonl",
    "validate_event",
    "validate_events",
    "write_jsonl",
    "TelemetrySession",
    # cost model (repro.obs.cost)
    "CostCollector",
    "collecting",
    "get_collector",
    "matmul_flops",
    "set_collector",
    "spmm_bytes",
    "spmm_flops",
    # profiler (repro.obs.profile)
    "MemoryProfiler",
    "ProfileSession",
    "cli_session",
    "folded_stacks",
    "top_frames",
    "write_folded",
]


class TelemetrySession:
    """A live registry + tracer installed as the process defaults.

    Entering installs a fresh :class:`MetricsRegistry` and
    :class:`Tracer` as the process-local defaults (saving whatever was
    there); exiting restores the previous defaults and, when
    ``jsonl_path`` was given, writes the full event stream to it.
    Sessions may also be used without ``with`` via :meth:`install` /
    :meth:`uninstall` when the scope doesn't nest lexically (the
    experiments CLI does this around its run loop).
    """

    def __init__(self, jsonl_path: Optional[str] = None, **meta) -> None:
        self.jsonl_path = jsonl_path
        self.meta: Dict[str, object] = dict(meta)
        self.registry = MetricsRegistry()
        self.tracer = Tracer()
        self._prev_registry: Optional[MetricsRegistry] = None
        self._prev_tracer: Optional[Tracer] = None
        self._installed = False

    # -- lifecycle --------------------------------------------------------
    def install(self) -> "TelemetrySession":
        if self._installed:
            raise RuntimeError("telemetry session already installed")
        self._prev_registry = set_registry(self.registry)
        self._prev_tracer = set_tracer(self.tracer)
        self._installed = True
        return self

    def uninstall(self) -> None:
        if not self._installed:
            return
        set_registry(self._prev_registry)
        set_tracer(self._prev_tracer)
        self._installed = False

    def __enter__(self) -> "TelemetrySession":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()
        if self._has_output():
            self.save()

    def _has_output(self) -> bool:
        return self.jsonl_path is not None

    # -- output -----------------------------------------------------------
    def events(self) -> List[Dict[str, object]]:
        """Meta event + every span (open ones marked) + final metrics."""
        meta = {"type": "meta", "schema": SCHEMA_VERSION, "attrs": dict(self.meta)}
        return (
            [meta]
            + self.tracer.events()
            + self.tracer.open_span_events()
            + self.registry.events()
        )

    def save(self, path: Optional[str] = None) -> int:
        """Write the JSONL trace; returns the number of events written."""
        target = path or self.jsonl_path
        if target is None:
            raise ValueError("no jsonl_path given at construction or save()")
        return write_jsonl(target, self.events())

    def summary(self) -> str:
        """The line a CLI prints once the session has exited."""
        return f"[telemetry] {len(self.events())} events → {self.jsonl_path}"


# The profiling layer imports TelemetrySession back from this package,
# so it must be pulled in only after the class exists.
from repro.obs.cost import (  # noqa: E402
    CostCollector,
    collecting,
    get_collector,
    matmul_flops,
    set_collector,
    spmm_bytes,
    spmm_flops,
)
from repro.obs.profile import (  # noqa: E402
    MemoryProfiler,
    ProfileSession,
    cli_session,
    folded_stacks,
    top_frames,
    write_folded,
)

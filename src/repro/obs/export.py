"""JSONL event export: schema, writer, reader, validation.

A telemetry trace is a JSON-Lines file — one event object per line, in
emission order.  Three event types (the ``type`` field):

``meta``
    First line of every trace.  ``{"type": "meta", "schema":
    "repro.obs/v1", "attrs": {...}}`` — run-level context (experiment
    name, mode, config hints).

``span``
    One closed :class:`~repro.obs.trace.Span`: ``name``, ``span_id``
    (int > 0), ``parent_id`` (int or null — null means a root span),
    ``t_start``/``t_end``/``dur`` (seconds on the tracer's monotonic
    clock, ``t_*`` relative to tracer creation), ``thread`` (emitting
    thread name), ``attrs`` (free-form tags such as ``round``,
    ``client``, ``phase``).

``metric``
    Final value of one instrument: ``metric`` (``counter`` | ``gauge``
    | ``histogram``), ``name``, ``tags``, and the instrument dump —
    ``value`` for counters/gauges, ``count``/``sum``/``min``/``max``/
    ``quantiles`` for histograms.

``profile`` (v2)
    One collapsed-stack profile: ``folded`` maps semicolon-joined span
    paths (``round;train;client.local_train``) to non-negative self-time
    values — the flamegraph input the profiler also writes to
    ``results/profile.folded``.  An optional ``memory_unavailable``
    string says why the run has no per-phase memory high-water.

v2 additions (``repro.obs/v2``; v1 traces still validate):

* the ``profile`` event type above;
* *open spans*: a span entered but never exited exports with
  ``"open": true`` and ``"t_end": null`` — its ``dur`` is the elapsed
  time **at export**, explicitly partial rather than silently missing
  (see :meth:`repro.obs.trace.Tracer.open_span_events`).

:func:`validate_events` is the contract the CI telemetry smoke and the
report renderer rely on; it raises ``ValueError`` with the offending
line index on any malformed event.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterable, List

SCHEMA_VERSION = "repro.obs/v2"
#: Schemas :func:`validate_event` accepts (v2 is a superset of v1).
COMPATIBLE_SCHEMAS = ("repro.obs/v1", "repro.obs/v2")

_EVENT_TYPES = ("meta", "span", "metric", "profile")
_METRIC_KINDS = ("counter", "gauge", "histogram")


def validate_event(event: Dict[str, object]) -> None:
    """Raise ``ValueError`` unless ``event`` matches the v1 schema."""
    if not isinstance(event, dict):
        raise ValueError(f"event must be an object, got {type(event).__name__}")
    etype = event.get("type")
    if etype not in _EVENT_TYPES:
        raise ValueError(f"unknown event type {etype!r} (expected one of {_EVENT_TYPES})")

    if etype == "meta":
        if event.get("schema") not in COMPATIBLE_SCHEMAS:
            raise ValueError(
                f"meta event schema {event.get('schema')!r} not in {COMPATIBLE_SCHEMAS}"
            )
        if not isinstance(event.get("attrs", {}), dict):
            raise ValueError("meta attrs must be an object")
        return

    if etype == "span":
        if not isinstance(event.get("name"), str) or not event["name"]:
            raise ValueError("span needs a non-empty string name")
        sid = event.get("span_id")
        if not isinstance(sid, int) or sid < 1:
            raise ValueError(f"span_id must be a positive int, got {sid!r}")
        pid = event.get("parent_id")
        if pid is not None and not isinstance(pid, int):
            raise ValueError(f"parent_id must be int or null, got {pid!r}")
        is_open = bool(event.get("open", False))
        for f in ("t_start", "t_end", "dur"):
            v = event.get(f)
            if f == "t_end" and is_open:
                if v is not None:
                    raise ValueError("open span must have t_end null")
                continue
            if not isinstance(v, (int, float)):
                raise ValueError(f"span field {f!r} must be a number, got {v!r}")
        if not is_open and event["t_end"] < event["t_start"]:
            raise ValueError("span ends before it starts")
        if not isinstance(event.get("attrs", {}), dict):
            raise ValueError("span attrs must be an object")
        return

    if etype == "profile":
        folded = event.get("folded")
        if not isinstance(folded, dict):
            raise ValueError("profile event needs a folded object")
        for stack, value in folded.items():
            if not isinstance(stack, str) or not stack:
                raise ValueError("folded stack keys must be non-empty strings")
            if not isinstance(value, (int, float)) or value < 0:
                raise ValueError(
                    f"folded value for {stack!r} must be a non-negative number"
                )
        return

    # metric
    mkind = event.get("metric")
    if mkind not in _METRIC_KINDS:
        raise ValueError(f"unknown metric kind {mkind!r} (expected one of {_METRIC_KINDS})")
    if not isinstance(event.get("name"), str) or not event["name"]:
        raise ValueError("metric needs a non-empty string name")
    if not isinstance(event.get("tags", {}), dict):
        raise ValueError("metric tags must be an object")
    if mkind in ("counter", "gauge"):
        if not isinstance(event.get("value"), (int, float)):
            raise ValueError(f"{mkind} needs a numeric value")
    else:
        if not isinstance(event.get("count"), int):
            raise ValueError("histogram needs an integer count")
        if not isinstance(event.get("quantiles", None), dict):
            raise ValueError("histogram needs a quantiles object")


def validate_events(events: Iterable[Dict[str, object]]) -> int:
    """Validate a whole trace; returns the event count."""
    n = 0
    for i, event in enumerate(events):
        try:
            validate_event(event)
        except ValueError as e:
            raise ValueError(f"event {i}: {e}") from e
        n += 1
    if n == 0:
        raise ValueError("empty trace")
    return n


def write_jsonl(path: str, events: Iterable[Dict[str, object]]) -> int:
    """Write events one-per-line; returns the number written."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    n = 0
    with open(path, "w", encoding="utf-8") as f:
        for event in events:
            f.write(json.dumps(event, sort_keys=False, default=_json_default))
            f.write("\n")
            n += 1
    return n


def read_jsonl(path: str) -> List[Dict[str, object]]:
    """Load a JSONL trace (blank lines are skipped)."""
    events = []
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


def _json_default(obj):
    """Serialize numpy scalars (which carry ``.item()``) transparently."""
    if hasattr(obj, "item"):
        return obj.item()
    return str(obj)

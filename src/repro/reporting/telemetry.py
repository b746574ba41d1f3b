"""Run reports from telemetry traces.

Consumes the JSONL event stream of :mod:`repro.obs` (or a live
:class:`~repro.obs.TelemetrySession`) and renders the run as text:

* **phase summary** — a table (total / calls / mean / p95 when
  available) over span names;
* **round timeline** — sparkline of per-round wall time plus one line
  per phase, the Figure 6-style view of where rounds go;
* **per-client heat table** — training time per client across rounds,
  the GCFL-style straggler/drift view;
* **communication breakdown** — bytes and messages per payload kind and
  direction, the Table 3 split.

Everything degrades gracefully: sections whose events are absent (e.g.
comm metrics in a trace captured without a registry) render as a single
"no data" line instead of failing, so partial traces stay readable.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.obs.export import read_jsonl, validate_events
from repro.reporting.spark import render_series, sparkline
from repro.reporting.tables import ascii_table

_HEAT_BLOCKS = " ▁▂▃▄▅▆▇█"


def spans(events: Sequence[dict], name: Optional[str] = None) -> List[dict]:
    """All span events, optionally filtered by span name."""
    return [
        e
        for e in events
        if e.get("type") == "span" and (name is None or e.get("name") == name)
    ]


def metrics(events: Sequence[dict], name: Optional[str] = None) -> List[dict]:
    """All metric events, optionally filtered by metric name."""
    return [
        e
        for e in events
        if e.get("type") == "metric" and (name is None or e.get("name") == name)
    ]


def phase_summary(events: Sequence[dict]) -> str:
    """Per-span-name totals: total, calls and mean seconds per name."""
    sps = spans(events)
    if not sps:
        return "phase summary: no span events"
    totals: Dict[str, float] = defaultdict(float)
    counts: Dict[str, int] = defaultdict(int)
    durs: Dict[str, List[float]] = defaultdict(list)
    for e in sps:
        totals[e["name"]] += e["dur"]
        counts[e["name"]] += 1
        durs[e["name"]].append(e["dur"])
    rows = [
        [
            name,
            f"{totals[name]:.4f}",
            counts[name],
            f"{totals[name] / counts[name]:.5f}",
            f"{float(np.percentile(durs[name], 95)):.5f}",
        ]
        for name in sorted(totals, key=totals.get, reverse=True)
    ]
    return ascii_table(
        ["span", "total_s", "count", "mean_s", "p95_s"], rows, title="== phase summary =="
    )


def _round_of(e: dict) -> Optional[int]:
    r = e.get("attrs", {}).get("round")
    return int(r) if r is not None else None


def round_timeline(events: Sequence[dict], width: int = 60) -> str:
    """Sparkline timelines of round wall time and each phase."""
    rounds = sorted(
        (e for e in spans(events, "round") if _round_of(e) is not None), key=_round_of
    )
    if not rounds:
        return "round timeline: no round spans"
    lines = [f"== round timeline ==  ({len(rounds)} rounds, seconds per round)"]
    lines.append(render_series("round", [], [e["dur"] for e in rounds], width=width))
    for phase in ("exchange", "train", "aggregate", "eval"):
        per_round: Dict[int, float] = defaultdict(float)
        for e in spans(events, phase):
            r = _round_of(e)
            if r is not None:
                per_round[r] += e["dur"]
        if per_round:
            series = [per_round.get(_round_of(e), float("nan")) for e in rounds]
            lines.append(render_series(f"  {phase}", [], series, width=width))
    return "\n".join(lines)


def client_heat_table(events: Sequence[dict], span_name: str = "client.local_train") -> str:
    """Per-client training-time table with a per-round heat strip.

    Heat cells share one global scale (max task duration in the trace),
    so a column that stays dark across every row is a slow *round* and a
    row that stays dark is a slow *client* — the straggler view.
    """
    tasks = [e for e in spans(events, span_name) if "client" in e.get("attrs", {})]
    if not tasks:
        return f"client heat table: no {span_name!r} spans"
    by_parent_round: Dict[int, int] = {}
    for e in spans(events):
        r = _round_of(e)
        if r is not None:
            by_parent_round[e["span_id"]] = r
    cells: Dict[int, Dict[int, float]] = defaultdict(dict)  # client → round → dur
    for e in tasks:
        cid = int(e["attrs"]["client"])
        r = by_parent_round.get(e.get("parent_id"), None)
        if r is None:  # orphan task: bucket by occurrence order
            r = len(cells[cid])
        cells[cid][r] = cells[cid].get(r, 0.0) + e["dur"]
    all_rounds = sorted({r for per in cells.values() for r in per})
    vmax = max(max(per.values()) for per in cells.values()) or 1.0
    rows = []
    for cid in sorted(cells):
        per = cells[cid]
        total = sum(per.values())
        strip = "".join(
            _HEAT_BLOCKS[
                min(
                    int(per[r] / vmax * (len(_HEAT_BLOCKS) - 1)),
                    len(_HEAT_BLOCKS) - 1,
                )
            ]
            if r in per
            else " "
            for r in all_rounds
        )
        rows.append(
            [
                f"client[{cid}]",
                f"{total:.4f}",
                len(per),
                f"{total / len(per):.5f}",
                strip,
            ]
        )
    return ascii_table(
        ["party", "total_s", "rounds", "mean_s", "per-round heat"],
        rows,
        title=f"== per-client {span_name.split('.')[-1]} ==",
    )


def comm_breakdown(events: Sequence[dict]) -> str:
    """Bytes/messages per payload kind and direction (the Table 3 split)."""
    byte_evs = metrics(events, "comm.bytes")
    msg_evs = metrics(events, "comm.messages")
    if not byte_evs:
        return "comm breakdown: no comm.bytes metrics"
    table: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for e in byte_evs:
        tags = e.get("tags", {})
        table[tags.get("kind", "other")][f"{tags.get('direction')}_bytes"] += e["value"]
    for e in msg_evs:
        tags = e.get("tags", {})
        table[tags.get("kind", "other")][f"{tags.get('direction')}_msgs"] += e["value"]
    rows = []
    for kind in sorted(table):
        t = table[kind]
        up, down = t.get("uplink_bytes", 0), t.get("downlink_bytes", 0)
        rows.append(
            [
                kind,
                int(up),
                int(down),
                int(up + down),
                int(t.get("uplink_msgs", 0) + t.get("downlink_msgs", 0)),
            ]
        )
    total = sum(r[3] for r in rows)
    rows.append(["total", sum(r[1] for r in rows), sum(r[2] for r in rows), total, ""])
    return ascii_table(
        ["kind", "uplink_B", "downlink_B", "total_B", "messages"],
        rows,
        title="== communication breakdown ==",
    )


def queue_wait_summary(events: Sequence[dict]) -> str:
    """Executor queue-wait quantiles, when the histogram was recorded."""
    hists = [e for e in metrics(events, "executor.queue_wait_s") if e.get("metric") == "histogram"]
    if not hists:
        return ""
    h = hists[0]
    q = h.get("quantiles", {})
    # An untouched histogram dumps null quantiles (see StreamingHistogram).
    parts = ", ".join(
        f"p{float(k) * 100:g}={v:.6f}s" if v is not None else f"p{float(k) * 100:g}=-"
        for k, v in sorted(q.items())
    )
    return f"executor queue wait: n={h.get('count')} {parts}"


def cost_summary(events: Sequence[dict]) -> str:
    """Per-phase FLOPs, bytes, and arithmetic intensity from the cost model."""
    flop_evs = metrics(events, "cost.flops")
    if not flop_evs:
        return ""
    flops: Dict[str, float] = defaultdict(float)
    byts: Dict[str, float] = defaultdict(float)
    for e in flop_evs:
        flops[e.get("tags", {}).get("phase", "-")] += e["value"]
    for e in metrics(events, "cost.bytes"):
        byts[e.get("tags", {}).get("phase", "-")] += e["value"]
    rows = []
    for phase in sorted(flops, key=flops.get, reverse=True):
        f, b = flops[phase], byts.get(phase, 0.0)
        rows.append(
            [phase, f"{int(f):,}", f"{int(b):,}", f"{f / b:.3f}" if b else "-"]
        )
    tf, tb = sum(flops.values()), sum(byts.values())
    rows.append(["total", f"{int(tf):,}", f"{int(tb):,}", f"{tf / tb:.3f}" if tb else "-"])
    return ascii_table(
        ["phase", "flops", "bytes", "flops/byte"],
        rows,
        title="== cost model (per phase) ==",
    )


def memory_summary(events: Sequence[dict]) -> str:
    """Per-phase RSS high-water marks of a ``--profile`` run.

    A profiled run that could not read the high-water says so, with the
    reason its ``profile`` event carries; an unprofiled one renders
    nothing.
    """
    gauges = metrics(events, "profile.mem_peak_bytes")
    if not gauges:
        reason = next(
            (e["memory_unavailable"] for e in events if e.get("memory_unavailable")),
            None,
        )
        return f"memory high-water: unavailable ({reason})" if reason else ""
    rows = [
        [
            str(e.get("tags", {}).get("phase", "-")),
            f"{int(e['value']):,}",
            f"{e['value'] / 2**20:.2f}",
        ]
        for e in sorted(gauges, key=lambda e: -e["value"])
    ]
    return ascii_table(
        ["phase", "peak_bytes", "peak_MiB"], rows, title="== memory high-water =="
    )


def top_frames_section(events: Sequence[dict], k: int = 10) -> str:
    """The hottest flamegraph frames by self time."""
    from repro.obs.profile import top_frames

    frames = top_frames(events, k=k)
    if not frames:
        return ""
    rows = [[path, f"{self_s:.4f}"] for path, self_s in frames]
    return ascii_table(
        ["frame (stack path)", "self_s"], rows, title=f"== top {len(rows)} frames =="
    )


def render_run_report(events: Sequence[dict]) -> str:
    """The full text report for one trace."""
    meta = next((e for e in events if e.get("type") == "meta"), None)
    header = "== telemetry run report =="
    if meta and meta.get("attrs"):
        header += "  (" + ", ".join(f"{k}={v}" for k, v in meta["attrs"].items()) + ")"
    sections = [
        header,
        round_timeline(events),
        phase_summary(events),
        client_heat_table(events),
        comm_breakdown(events),
    ]
    for optional in (
        cost_summary(events),
        memory_summary(events),
        top_frames_section(events),
        queue_wait_summary(events),
    ):
        if optional:
            sections.append(optional)
    return "\n\n".join(sections)


def render_report_file(path: str) -> str:
    """Validate and render a saved JSONL trace."""
    events = read_jsonl(path)
    validate_events(events)
    return render_run_report(events)

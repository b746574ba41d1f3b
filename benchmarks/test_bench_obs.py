"""Telemetry/profiler overhead smoke: observing a run must not distort it.

Runs the smoke-scale Cora-SBM FedOMD config three times — bare,
telemetry-traced (full JSONL), and fully profiled (telemetry + cost
model + memory high-water) — and asserts the observability contract
end to end:

* both observed runs are ``metrics_equal`` to the bare one (zero
  perturbation, even with the per-op cost hooks armed);
* the emitted JSONL validates and covers every round;
* wall-clock overhead stays under generous bounds (the per-op cost hook
  is one dict lookup + counter bump against NumPy kernels that dominate
  by orders of magnitude; profiling pays it on every op and gets its own
  looser bound, while its memory high-water is one ``/proc`` reset and
  read per phase).

The bare time is the median of ``BARE_RUNS`` runs after a warm-up, so
one slow or fast bare run cannot decide either ratio.  Timings are gated
against the snapshot ``BENCH_obs.json`` at the repo root (the committed
one, in a CI checkout) before they overwrite it; see
``benchmarks/snapshot.py``.
"""

import os
import time

import numpy as np

from repro.core import FedOMDConfig, FedOMDTrainer
from repro.graphs import load_dataset, louvain_partition
from repro.obs import ProfileSession, TelemetrySession, read_jsonl, validate_events
from repro.reporting.telemetry import render_run_report

from benchmarks.snapshot import gate_snapshot

# Generous: telemetry adds O(spans + counter bumps) per round, which is
# microseconds against the milliseconds of a training round, but CI
# runners are noisy so we only guard against order-of-magnitude
# regressions (e.g. an accidental per-op span or sample-storing
# histogram).  Full profiling adds the per-op cost collector (a counter
# bump on every autograd op), hence the looser bound.
MAX_OVERHEAD_RATIO = 2.0
MAX_PROFILE_OVERHEAD_RATIO = 4.0
ROUNDS = 5
BARE_RUNS = 5

PHASES = ("exchange", "train", "agg", "eval")


def _run(parts, session=None):
    cfg = FedOMDConfig(max_rounds=ROUNDS, patience=10 * ROUNDS, hidden=32)
    trainer = FedOMDTrainer(parts, cfg, seed=0)
    t0 = time.perf_counter()
    if session is not None:
        with session:
            hist = trainer.run()
    else:
        hist = trainer.run()
    return hist, time.perf_counter() - t0


def _phase_means(hist):
    """Mean seconds per round for each trainer phase, off the records."""
    return {
        phase: float(np.mean([getattr(r, f"{phase}_time") for r in hist.records]))
        for phase in PHASES
    }


def test_bench_telemetry_overhead(tmp_path):
    g = load_dataset("cora", seed=0, scale=0.12)
    parts = louvain_partition(g, 3, np.random.default_rng(0)).parts

    # Warm-up run (adjacency caches, BLAS init) so no timed run pays
    # first-touch costs.
    _run(parts)

    bare = sorted((_run(parts) for _ in range(BARE_RUNS)), key=lambda run: run[1])
    hist_off, t_off = bare[BARE_RUNS // 2]
    trace_path = str(tmp_path / "bench_obs.jsonl")
    session = TelemetrySession(trace_path, experiment="bench_obs", mode="smoke")
    hist_on, t_on = _run(parts, session=session)
    profile = ProfileSession(
        folded_path=str(tmp_path / "bench_obs.folded"), experiment="bench_obs"
    )
    hist_prof, t_prof = _run(parts, session=profile)

    # Contract 1: identical training trajectory, observed or not.
    assert hist_off.metrics_equal(hist_on)
    assert hist_off.metrics_equal(hist_prof)
    assert len(hist_on.records) == ROUNDS

    # Contract 2: the trace is schema-valid and covers every round.
    events = read_jsonl(trace_path)
    n_events = validate_events(events)
    round_spans = sorted(
        e["attrs"]["round"]
        for e in events
        if e.get("type") == "span" and e.get("name") == "round"
    )
    assert round_spans == list(range(ROUNDS))
    report = render_run_report(events)
    assert "communication breakdown" in report
    # The profiled run adds the cost-model sections and the folded file.
    assert "cost model (per phase)" in profile.report()
    assert os.path.exists(profile.folded_path)

    # Contract 3: overhead within the (generous) bounds.
    ratio = t_on / max(t_off, 1e-9)
    profile_ratio = t_prof / max(t_off, 1e-9)
    print(
        f"\n[telemetry bench] bare {t_off:.3f}s telemetry {t_on:.3f}s "
        f"({ratio:.2f}x) profiled {t_prof:.3f}s ({profile_ratio:.2f}x) "
        f"events {n_events}"
    )

    # Per-phase overhead deltas: where the observability time actually
    # goes (phase means off the RoundRecords of each run).
    means_off = _phase_means(hist_off)
    means_on = _phase_means(hist_on)
    means_prof = _phase_means(hist_prof)
    phase_overhead = {
        phase: {
            "off_s": round(means_off[phase], 6),
            "telemetry_s": round(means_on[phase], 6),
            "profiled_s": round(means_prof[phase], 6),
            "telemetry_delta_s": round(means_on[phase] - means_off[phase], 6),
            "profiled_delta_s": round(means_prof[phase] - means_off[phase], 6),
        }
        for phase in PHASES
    }

    payload = {
        "rounds": ROUNDS,
        "telemetry_off_s": round(t_off, 6),
        "telemetry_on_s": round(t_on, 6),
        "profiled_s": round(t_prof, 6),
        "overhead_ratio": round(ratio, 4),
        "profile_overhead_ratio": round(profile_ratio, 4),
        "trace_events": n_events,
        "mean_round_wall_off_s": round(float(np.mean(hist_off.wall_times)), 6),
        "mean_round_wall_on_s": round(float(np.mean(hist_on.wall_times)), 6),
        "phase_overhead": phase_overhead,
    }
    # Gate before the bounds, so a regression is named even on a run
    # whose overhead bound also fails.
    gate_snapshot("BENCH_obs.json", payload, min_base=0.005)

    assert ratio <= MAX_OVERHEAD_RATIO, (
        f"telemetry overhead {ratio:.2f}x exceeds {MAX_OVERHEAD_RATIO}x"
    )
    assert profile_ratio <= MAX_PROFILE_OVERHEAD_RATIO, (
        f"profiling overhead {profile_ratio:.2f}x exceeds "
        f"{MAX_PROFILE_OVERHEAD_RATIO}x"
    )

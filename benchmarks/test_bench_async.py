"""Async-engine load bench: N churning clients, barrier vs quorum legs.

Runs the ``loadtest`` measurement (``repro.experiments.loadtest``):
every client under the same seeded latency model and
straggler/drop/crash fault plan, once at ``quorum=1.0``
(barrier-equivalent timing — the round ends at the last arrival) and
once at the configured quorum.  Both legs advance a
:class:`~repro.federated.clock.VirtualClock`, so the round-throughput
ratio is *deterministic* for a given seed: the ``>= 2x`` speedup gate
cannot flake on runner load, and is asserted at every scale.

The metrics are gated against this scale's entry of the committed
``BENCH_async.json`` before they replace it (per-mode keys: a smoke run
never clobbers the 1000-client full entry); see
``benchmarks/snapshot.py``.

Scale knob: ``REPRO_BENCH_ASYNC_SCALE=smoke`` (CI) runs 60 clients;
``full`` (the default) is the 1000-client acceptance run.
"""

import os

from repro.experiments.loadtest import measure

from benchmarks.snapshot import gate_snapshot

SCALE = os.environ.get("REPRO_BENCH_ASYNC_SCALE", "full")
MIN_THROUGHPUT_SPEEDUP = 2.0


def test_bench_async_round_throughput():
    entry = measure(SCALE)
    for leg in ("barrier", "async"):
        print(
            f"\n[async bench] {leg:>7} quorum {entry[leg]['quorum']:.2f} "
            f"{entry[leg]['throughput_rounds_per_vsec']:.3f} rounds/vsec "
            f"late {entry[leg]['late_updates']}"
        )
        assert entry[leg]["rounds"] > 0
        assert entry[leg]["virtual_time"] > 0
    # The async leg must fold stragglers into later rounds rather than
    # discarding everything: at least one staleness-weighted update.
    assert entry["async"]["late_updates"] > 0
    gate_snapshot("BENCH_async.json", entry, min_base=0.005, mode=SCALE)

    assert entry["throughput_speedup"] >= MIN_THROUGHPUT_SPEEDUP, (
        f"async engine only {entry['throughput_speedup']:.2f}x the barrier "
        f"round throughput under churn (need >= {MIN_THROUGHPUT_SPEEDUP}x)"
    )

"""Model-checker throughput bench: schedules/sec and DPOR pruning ratio.

Runs ``repro.analysis.modelcheck.check`` end-to-end — baseline run,
schedule enumeration, one controlled federated run per schedule, digest
comparison — and gates the throughput metrics against this scale's
entry of the committed ``BENCH_modelcheck.json`` before they replace it
(per-mode keys, same convention as ``BENCH_async.json``: a smoke run in
CI never clobbers the committed full entry); see
``benchmarks/snapshot.py``.

Scale knob: ``REPRO_BENCH_MODELCHECK_SCALE=smoke`` (CI) explores 24
schedules over 3 clients; ``full`` (the default) is the 120-schedule
4-client acceptance configuration.
"""

import os

from repro.analysis.modelcheck import check

from benchmarks.snapshot import gate_snapshot

SCALE = os.environ.get("REPRO_BENCH_MODELCHECK_SCALE", "full")

CONFIGS = {
    "smoke": {"clients": 3, "rounds": 2, "max_schedules": 24},
    "full": {"clients": 4, "rounds": 2, "max_schedules": 120},
}
MIN_SCHEDULES = {"smoke": 24, "full": 100}
#: Generous wall-clock gate per schedule; the committed snapshot's gate
#: tracks the real trajectory.
MAX_PER_SCHEDULE_S = 1.0


def test_bench_modelcheck_throughput():
    result = check(seed=0, resume_checks=2, inject_race=False, **CONFIGS[SCALE])
    print(
        f"\n[modelcheck bench] {result['explored']} of {result['total_space']} "
        f"schedules, {result['per_schedule_s'] * 1e3:.1f} ms/schedule"
    )
    # Every explored schedule is bitwise-equivalent to the baseline, and
    # every resumed run to its uninterrupted twin.
    assert not result["divergent"], f"divergent schedules: {result['divergent']}"
    assert not result["resume_failures"], (
        f"resume mismatches (schedule, boundary): {result['resume_failures']}"
    )

    entry = {
        "schedules": result["explored"],
        "per_schedule_s": result["per_schedule_s"],
        "dpor_kept_ratio": result["dpor_kept_ratio"],
    }
    gate_snapshot("BENCH_modelcheck.json", entry, min_base=0.002, mode=SCALE)

    assert entry["schedules"] >= MIN_SCHEDULES[SCALE]
    assert 0 < entry["per_schedule_s"] < MAX_PER_SCHEDULE_S
    # DPOR keeps a strict subset of the raw (n!)^rounds space.
    assert 0 < entry["dpor_kept_ratio"] < 1

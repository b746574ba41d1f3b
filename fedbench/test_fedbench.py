"""Self-tests of the benchmark's tracer, probes and checks.

Run from the repository root::

    python3 -m pytest fedbench -q
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import replace

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from fedbench import run  # noqa: E402
from fedbench.probes import UpdateLedger  # noqa: E402
from fedbench.tracer import ROUND, Span, Tracer, analyze  # noqa: E402
from fedbench.workloads import WARM_ROUNDS, WORKLOADS, run_once  # noqa: E402

#: Smoke-sized twins of each workload: same engine, parties and options.
SMOKE = {
    "cora-m5": replace(WORKLOADS["cora-m5"], scale=0.15),
    "cs-m10": replace(WORKLOADS["cs-m10"], scale=0.05),
    "photo-m20-async": replace(WORKLOADS["photo-m20-async"], scale=0.1),
}
SMOKE_SECONDS = 0.1  # the five-round minimum


def _span(name, parent, t0, t1):
    span = Span(name, parent, parent.round)
    span.t0, span.t1 = t0, t1
    return span


def test_self_times_scale_overlapping_worker_spans():
    tracer = Tracer()
    root = Span(ROUND, None, 0)
    root.t0, root.t1 = 0.0, 10.0
    pool = _span("map", root, 1.0, 5.0)
    # Two worker tasks overlap for 2 s inside a 4 s map.
    tasks = [_span("task", pool, 1.0, 4.0), _span("task", pool, 2.0, 5.0)]
    leaf = _span("op", tasks[0], 1.0, 2.0)
    tracer.spans = [pool, leaf] + tasks
    tracer.rounds = [root]
    stats = analyze(tracer)[0]
    assert stats.self_s[ROUND] == pytest.approx(6.0)
    assert stats.self_s["map"] == pytest.approx(0.0)
    # 6 s of task time squeezed into the 4 s the map covered.
    assert stats.self_s["task"] + stats.self_s["op"] == pytest.approx(4.0)
    assert stats.self_s["op"] == pytest.approx(1.0 * 4.0 / 6.0)
    assert sum(stats.self_s.values()) == pytest.approx(stats.wall)
    assert stats.thread_s["task"] == pytest.approx(6.0)


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_smoke_workload_runs_in_seconds(name):
    start = time.perf_counter()
    result = run.measure_traced(SMOKE[name], seed=3, seconds=SMOKE_SECONDS)
    assert result["failures"] == []
    assert result["attempted"] == 5
    assert time.perf_counter() - start < 60
    metrics = result["metrics"]
    assert metrics["federated.updates.dispatched"]["value"] > 0
    assert metrics["gnn.conv_in.gflops"]["value"] > 0
    if SMOKE[name].engine == "barrier":
        assert metrics["client_updates.failed_ratio"]["value"] == 0.0


def test_untraced_measurement_reports_every_end_to_end_metric():
    result = run.measure(SMOKE["cora-m5"], seed=3, seconds=SMOKE_SECONDS)
    assert result["failures"] == []
    assert set(result["metrics"]) == {
        "setup_s",
        "round_s.p50",
        "round_s.p90",
        "peak_rss_mb",
        "comm_mb_per_round",
        "client_updates.delivered_ratio",
    }
    assert result["metrics"]["client_updates.delivered_ratio"]["value"] == 1.0


def test_update_ledger_settles_each_update_by_its_dispatch_round():
    from repro.federated.async_engine import FoldResult

    ledger = UpdateLedger()
    ledger.dispatch(0, [0, 1, 2])
    ledger.fold(FoldResult(None, quarantined=(), discarded=(1,), kept=((0, 0),)))
    ledger.dispatch(1, [0, 1])
    ledger.fold(FoldResult(None, quarantined=(), discarded=(), kept=((2, 1),)))
    ledger.dispatch(2, [1])  # client 1's round-1 update never arrived
    ledger.fold(FoldResult(None, quarantined=(), discarded=(), kept=((7, 0),)))
    assert ledger.totals(0) == {
        "dispatched": 6, "reached": 2, "failed": 2, "late": 1,
        "discarded": 1, "quarantined": 0, "open": 2,
    }
    assert ledger.totals(1) == {
        "dispatched": 3, "reached": 0, "failed": 1, "late": 0,
        "discarded": 0, "quarantined": 0, "open": 2,
    }
    assert ledger.unmatched == 1


def test_probe_restores_every_wrapped_attribute():
    from repro.autograd import ops_basic
    from repro.federated.client import Client
    from repro.obs.trace import Span as ObsSpan

    before = (Client.train_step, ops_basic.power, ObsSpan.__exit__)
    run_once(SMOKE["cora-m5"], seed=1, rounds=WARM_ROUNDS + 1, tracer=Tracer())
    assert (Client.train_step, ops_basic.power, ObsSpan.__exit__) == before


def test_perturbed_exchange_trips_the_check(monkeypatch):
    from repro.core.exchange import MomentExchange

    monkeypatch.setattr(
        MomentExchange, "_perturb_statistic", lambda self, stat, n_i: stat * (1 + 1e-6)
    )
    result = run.measure_traced(SMOKE["cora-m5"], seed=3, seconds=SMOKE_SECONDS)
    assert any("moment exchange differs" in f for f in result["failures"])


def test_missing_program_exits_nonzero_without_a_result(monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", os.path.join(ROOT, "no-such-checkout"))
    code = run.main(["--workload", "cora-m5", "--seed", "1", "--seconds", "1", "--trace", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""

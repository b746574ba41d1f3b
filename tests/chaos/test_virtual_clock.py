"""Virtual-clock determinism: arrival schedules, resume, and no real sleeps.

The async engine's whole correctness story rests on virtual time: the
arrival schedule is a pure function of the run seed, so quorum
decisions and staleness accounting are bit-reproducible — across runs,
across checkpoint/resume (including *mid-quorum*, with reports still in
flight), and regardless of machine load.  This suite pins each of those
claims, plus two regressions:

* a client whose crash report pops *after* its round already met quorum
  must be consumed cleanly in a later round (the fault plan is consulted
  for the dispatch round, not the pop round);
* the barrier engine's straggler/timeout/retry waits route
  through the injectable clock, so a chaos drill handed a
  :class:`VirtualClock` pays zero wall-clock for multi-second delays.
"""

import time

import numpy as np
import pytest

from repro.federated import (
    ClientLatencyModel,
    FederatedTrainer,
    TrainerConfig,
    VirtualClock,
)
from repro.federated.checkpoint import checkpoint_path
from repro.federated.faults import FaultPlan
from repro.obs import TelemetrySession
from tests.chaos.test_checkpoint_resume import (
    Killed,
    assert_states_bitwise_equal,
    kill_at_round,
)

ROUNDS = 6
KILL_AT = 4  # checkpoint_every=2 ⇒ snapshot exists for next_round=4

# Stragglers stay in flight for ~60 rounds of virtual time, so every
# checkpoint in a faulted run has a non-empty event queue.
CHURN = "straggler=0.3:delay=5.0,drop=0.1,corrupt=0.1:mode=nan,crash=0.1"


@pytest.fixture()
def telemetry():
    with TelemetrySession() as session:
        yield session.registry


def make_config(ckpt_dir=None, **overrides):
    base = dict(
        max_rounds=ROUNDS, patience=50, hidden=8, engine="async", quorum=0.6
    )
    if ckpt_dir is not None:
        base.update(checkpoint_every=2, checkpoint_dir=str(ckpt_dir))
    base.update(overrides)
    return TrainerConfig(**base)


def run_async(parts, faults=None, fault_seed=3, **overrides):
    plan = FaultPlan.from_spec(faults, seed=fault_seed) if faults else None
    tr = FederatedTrainer(parts, make_config(**overrides), seed=0, faults=plan)
    hist = tr.run()
    return tr, hist


class TestVirtualClock:
    def test_sleep_advances_without_blocking(self):
        clock = VirtualClock()
        t0 = time.perf_counter()
        clock.sleep(3600.0)
        assert time.perf_counter() - t0 < 1.0  # an hour in under a second
        assert clock.now() == 3600.0
        assert clock.elapsed == 3600.0

    def test_advance_to_is_monotonic(self):
        clock = VirtualClock(start=10.0)
        clock.advance_to(12.5)
        assert clock.now() == 12.5
        clock.advance_to(12.5)  # no-op, not an error
        with pytest.raises(ValueError, match="backward"):
            clock.advance_to(11.0)

    def test_negative_sleep_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            VirtualClock().sleep(-0.1)

    def test_latency_model_is_query_order_free(self):
        # Like FaultPlan.event: a pure function of (seed, round, client),
        # so schedules survive any interleaving or resume point.
        m1 = ClientLatencyModel(7, base=0.05, jitter=0.5)
        m2 = ClientLatencyModel(7, base=0.05, jitter=0.5)
        forward = [(r, c, m1.duration(r, c)) for r in range(4) for c in range(5)]
        backward = [
            (r, c, m2.duration(r, c))
            for r in reversed(range(4))
            for c in reversed(range(5))
        ]
        assert sorted(forward) == sorted(backward)


class TestArrivalScheduleDeterminism:
    def test_identical_runs_identical_schedules(self, parts):
        tr1, hist1 = run_async(parts, faults=CHURN)
        tr2, hist2 = run_async(parts, faults=CHURN)
        assert hist1.metrics_equal(hist2)
        assert_states_bitwise_equal(tr1, tr2)
        # The virtual timeline itself is part of the reproducible state:
        # same seed ⇒ same quorum waits ⇒ same final clock reading.
        assert tr1.clock.elapsed == tr2.clock.elapsed
        assert tr1.async_engine.version == tr2.async_engine.version

    def test_faulted_run_is_load_independent(self, parts):
        # Virtual elapsed time is orders of magnitude beyond the wall
        # time spent: 5-second stragglers cost nothing real.
        t0 = time.perf_counter()
        tr, hist = run_async(parts, faults=CHURN)
        wall = time.perf_counter() - t0
        assert len(hist) == ROUNDS
        assert tr.clock.elapsed > 1.0  # stragglers pushed virtual time out
        assert wall < 30.0


class TestMidQuorumResume:
    def test_resume_with_reports_in_flight_is_bitwise(self, parts, tmp_path):
        plan = lambda: FaultPlan.from_spec(CHURN, seed=3)  # noqa: E731
        baseline = FederatedTrainer(parts, make_config(), seed=0, faults=plan())
        base_hist = baseline.run()

        victim = FederatedTrainer(
            parts, make_config(tmp_path), seed=0, faults=plan()
        )
        kill_at_round(victim, KILL_AT)
        with pytest.raises(Killed):
            victim.run()

        resumed = FederatedTrainer(
            parts, make_config(tmp_path), seed=0, faults=plan()
        )
        resumed.resume(checkpoint_path(str(tmp_path)))
        assert resumed._start_round == KILL_AT
        # The test is only meaningful mid-quorum: stragglers must still
        # be in flight in the restored event queue.
        assert len(resumed.async_engine._heap) > 0
        hist = resumed.run()

        assert hist.metrics_equal(base_hist)
        assert_states_bitwise_equal(resumed, baseline)
        assert resumed.async_engine.version == baseline.async_engine.version
        assert resumed.clock.elapsed == pytest.approx(baseline.clock.elapsed, abs=0)
        ga, gb = resumed.async_engine.global_state, baseline.async_engine.global_state
        assert ga.keys() == gb.keys()
        for k in ga:
            np.testing.assert_array_equal(ga[k], gb[k])

    def test_clean_full_quorum_resume_matches_barrier_golden(self, parts, tmp_path):
        # No faults, quorum 1.0: the resumed async run must land on the
        # same bits as an uninterrupted *barrier* run — resume composes
        # with the engine-equivalence guarantee.
        barrier = FederatedTrainer(
            parts, make_config(engine="barrier", quorum=1.0), seed=0
        )
        base_hist = barrier.run()
        victim = FederatedTrainer(parts, make_config(tmp_path, quorum=1.0), seed=0)
        kill_at_round(victim, KILL_AT)
        with pytest.raises(Killed):
            victim.run()
        resumed = FederatedTrainer(parts, make_config(tmp_path, quorum=1.0), seed=0)
        resumed.resume(checkpoint_path(str(tmp_path)))
        assert resumed.run().metrics_equal(base_hist)
        assert_states_bitwise_equal(resumed, barrier)

    def test_engine_checkpoint_mismatch_rejected(self, parts, tmp_path):
        # A barrier trainer cannot resume an async checkpoint: the saved
        # event queue would be silently dropped.
        victim = FederatedTrainer(parts, make_config(tmp_path), seed=0)
        kill_at_round(victim, KILL_AT)
        with pytest.raises(Killed):
            victim.run()
        barrier = FederatedTrainer(
            parts, make_config(engine="barrier", quorum=1.0), seed=0
        )
        with pytest.raises(ValueError, match="engine"):
            barrier.resume(checkpoint_path(str(tmp_path)))


class TestCrashAfterQuorum:
    """Regression: a crash report popping in a later round is consumed cleanly.

    With ``quorum=0.25`` (2 of 5 uploads) and seed-0 latencies, client
    0's round-0 report is the third arrival — round 0 aggregates before
    it pops, so the crash fires from round 1's event loop while the
    injector has already moved on.  The fault plan must be consulted for
    the *dispatch* round for the crash to be recorded at all.
    """

    def test_late_crash_consumed(self, parts, telemetry):
        lat = ClientLatencyModel(0, base=0.05, jitter=0.5)
        order = sorted(range(5), key=lambda c: lat.duration(0, c))
        assert order.index(0) >= 2, "precondition: client 0 must miss quorum"

        tr, hist = run_async(
            parts, faults="crash=1.0:clients=0:rounds=0", quorum=0.25
        )
        assert len(hist) == ROUNDS
        assert telemetry.counter("faults.injected", kind="crash").value == 1
        assert telemetry.counter("faults.excluded", kind="crash").value == 1
        # Later rounds keep aggregating: the lost report stalls nothing.
        assert tr.async_engine.version == ROUNDS

    def test_late_crash_deterministic(self, parts):
        runs = [
            run_async(parts, faults="crash=1.0:clients=0:rounds=0", quorum=0.25)
            for _ in range(2)
        ]
        assert runs[0][1].metrics_equal(runs[1][1])
        assert_states_bitwise_equal(runs[0][0], runs[1][0])


class TestBarrierSleepsAreInjectable:
    """Pin of the timeout/retry fix: barrier waits go through the clock."""

    def test_straggler_timeout_backoff_pay_no_wall_clock(self, parts, telemetry):
        clock = VirtualClock()
        cfg = TrainerConfig(
            max_rounds=3,
            patience=50,
            hidden=8,
            client_timeout=3.0,
            client_retries=1,
        )
        plan = FaultPlan.from_spec("straggler=1.0:delay=5.0", seed=0)
        tr = FederatedTrainer(parts, cfg, seed=0, faults=plan, clock=clock)
        t0 = time.perf_counter()
        hist = tr.run()
        wall = time.perf_counter() - t0
        assert len(hist) == 3
        # Every client straggles past the deadline every round: each
        # costs one timeout (3.0) in *virtual* seconds, then retries.
        expected = 3 * len(tr.clients) * 3.0
        assert clock.elapsed == pytest.approx(expected)
        assert wall < 10.0  # ~45 virtual seconds of waiting, near-zero real
        recovered = telemetry.counter("faults.recovered", kind="straggler").value
        assert recovered == 3 * len(tr.clients)

    def test_virtual_and_real_clock_runs_match_bitwise(self, parts):
        # The clock changes *when* things happen, never *what* happens:
        # with millisecond delays the SystemClock run is fast enough to
        # compare directly.
        spec = "straggler=1.0:delay=0.001"
        cfg = dict(max_rounds=3, patience=50, hidden=8)
        real = FederatedTrainer(
            parts, TrainerConfig(**cfg), seed=0, faults=FaultPlan.from_spec(spec)
        )
        hist_real = real.run()
        virt = FederatedTrainer(
            parts,
            TrainerConfig(**cfg),
            seed=0,
            faults=FaultPlan.from_spec(spec),
            clock=VirtualClock(),
        )
        hist_virt = virt.run()
        assert hist_virt.metrics_equal(hist_real)
        assert_states_bitwise_equal(virt, real)

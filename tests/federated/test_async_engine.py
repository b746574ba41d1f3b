"""Async/barrier equivalence: full quorum replays the golden trajectory.

The async engine's deterministic mode — every client reporting, quorum
1.0 — is designed to take the *identical* float operations the barrier
loop takes: same participant RNG draw, same client-id aggregation
order, same ``fedavg`` call, same broadcast.  The FedOMD golden digest
is pinned for both engines in every operational variant by the
determinism matrix in ``test_golden_history.py``; this suite pins the
plain FedAvg trainer's final weights and metered traffic bitwise, and
that straggler-reordered arrivals still fold to the barrier run's bits.

Construction-time validation rides along: the engine refuses wall
clocks and trainers whose custom ``aggregate`` it cannot replay.
"""

import numpy as np
import pytest

from repro.experiments.loadtest import make_parties
from repro.federated import (
    FaultPlan,
    FederatedTrainer,
    SystemClock,
    TrainerConfig,
    VirtualClock,
)
from repro.graphs import load_dataset, louvain_partition
from tests.federated.test_golden_history import state_hash


@pytest.fixture(scope="module")
def parts():
    g = load_dataset("cora", seed=0, scale=0.12)
    return louvain_partition(g, 3, np.random.default_rng(0)).parts


class TestGoldenEquivalence:
    def test_base_trainer_histories_and_weights_identical(self, parts):
        # Beyond the metric digest: the final client weights themselves
        # must be equal to the bit, for the plain FedAvg trainer too.
        def run(engine):
            cfg = TrainerConfig(max_rounds=4, patience=50, hidden=8, engine=engine)
            tr = FederatedTrainer(parts, cfg, seed=0)
            return tr, tr.run()

        barrier, hist_b = run("barrier")
        asynch, hist_a = run("async")
        assert hist_a.metrics_equal(hist_b)
        for cb, ca in zip(barrier.clients, asynch.clients):
            sb, sa = cb.get_state(), ca.get_state()
            assert sb.keys() == sa.keys()
            for k in sb:
                np.testing.assert_array_equal(sb[k], sa[k], err_msg=f"{cb.cid}/{k}")

    def test_comm_bytes_identical(self, parts):
        # Full quorum with nobody in flight uses the same broadcast /
        # gather collectives, so even the metered traffic matches.
        def run(engine):
            cfg = TrainerConfig(max_rounds=3, patience=50, hidden=8, engine=engine)
            tr = FederatedTrainer(parts, cfg, seed=0)
            tr.run()
            return tr.comm.stats

        sb, sa = run("barrier"), run("async")
        assert sa.uplink_bytes == sb.uplink_bytes
        assert sa.downlink_bytes == sb.downlink_bytes
        assert sa.by_kind == sb.by_kind


class TestReorderedArrivals:
    """A reordered arrival schedule must not move a bit of the outcome.

    Stragglers on clients 0 and 1 push their reports to the back of the
    virtual-time heap, so the engine pops a round's uploads in a
    different order than the clean run does.  At full quorum the fold
    sorts arrivals by client id before it sums, so both runs — and the
    barrier run — end on the same bytes.  A fold that sums in pop order
    (a running mean, say) fails here: float addition is not associative.
    """

    STRAGGLE = "straggler=1.0:delay=0.5:clients=0|1"

    def _run(self, parts, engine, faults=None):
        cfg = TrainerConfig(
            max_rounds=3, patience=50, hidden=8, engine=engine, quorum=1.0
        )
        trainer = FederatedTrainer(parts, cfg, seed=0, faults=faults)
        pops = {}
        async_engine = trainer.async_engine
        if async_engine is not None:
            pop = async_engine._next_report

            def recording_pop():
                report = pop()
                pops.setdefault(report.round, []).append(report.cid)
                return report

            async_engine._next_report = recording_pop
        history = trainer.run()
        return history, state_hash(trainer), pops

    def test_straggler_pops_fold_to_barrier_bits(self):
        parts = make_parties(4, seed=1)
        clean, clean_hash, clean_pops = self._run(parts, "async")
        plan = FaultPlan.from_spec(self.STRAGGLE, seed=3)
        late, late_hash, late_pops = self._run(parts, "async", faults=plan)
        barrier, barrier_hash, _ = self._run(parts, "barrier")

        # The check is only meaningful if the pop order really moved.
        assert sorted(clean_pops) == sorted(late_pops) == [0, 1, 2]
        assert any(clean_pops[r] != late_pops[r] for r in clean_pops), (
            clean_pops,
            late_pops,
        )
        assert late.metrics_equal(clean)
        assert clean.metrics_equal(barrier)
        assert late_hash == clean_hash == barrier_hash


class TestEngineValidation:
    def test_engine_field_validated(self):
        with pytest.raises(ValueError, match="engine"):
            TrainerConfig(engine="warp")

    @pytest.mark.parametrize(
        "field,value",
        [
            ("quorum", 0.0),
            ("quorum", 1.5),
        ],
    )
    def test_async_knobs_validated(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainerConfig(**{field: value})

    def test_async_requires_virtual_clock(self, parts):
        cfg = TrainerConfig(max_rounds=2, patience=50, hidden=8, engine="async")
        with pytest.raises(ValueError, match="VirtualClock"):
            FederatedTrainer(parts, cfg, seed=0, clock=SystemClock())

    def test_barrier_engine_has_no_async_state(self, parts):
        cfg = TrainerConfig(max_rounds=1, patience=50, hidden=8)
        tr = FederatedTrainer(parts, cfg, seed=0)
        assert tr.async_engine is None
        assert isinstance(tr.clock, SystemClock)

    def test_async_engine_installed_with_virtual_clock(self, parts):
        cfg = TrainerConfig(max_rounds=1, patience=50, hidden=8, engine="async")
        tr = FederatedTrainer(parts, cfg, seed=0)
        assert tr.async_engine is not None
        assert isinstance(tr.clock, VirtualClock)

    def test_custom_aggregate_rejected(self, parts):
        class ServerStepTrainer(FederatedTrainer):
            def aggregate(self):
                return super().aggregate()

        cfg = TrainerConfig(max_rounds=2, patience=50, hidden=8, engine="async")
        with pytest.raises(ValueError, match="aggregate"):
            ServerStepTrainer(parts, cfg, seed=0)

    def test_fedprox_rejected(self, parts):
        from repro.baselines import FedProxTrainer

        cfg = TrainerConfig(max_rounds=2, patience=50, hidden=8, engine="async")
        with pytest.raises(ValueError, match="aggregate"):
            FedProxTrainer(parts, cfg, seed=0)

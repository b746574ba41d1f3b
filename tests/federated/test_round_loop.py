"""The trainer's one round loop, driven by either engine.

Two edge cases the loop must keep right whichever engine supplies the
train and aggregate steps: a one-node party going through FedOMD's full
2-round moment exchange, and the timing rule that reads ``wall_time``
and ``train_time`` on the trainer's clock.
"""

import numpy as np
import pytest

from repro.core import FedOMDConfig, FedOMDTrainer
from repro.federated import FederatedTrainer, TrainerConfig
from repro.graphs import load_dataset, louvain_partition
from repro.graphs.partition import subgraph


@pytest.fixture(scope="module")
def parts():
    g = load_dataset("cora", seed=0, scale=0.12)
    return louvain_partition(g, 3, np.random.default_rng(0)).parts


@pytest.fixture(scope="module")
def one_node_parts(parts):
    first_train = np.flatnonzero(parts[0].train_mask)[:1]
    single = subgraph(parts[0], first_train, name="one-node")
    assert single.num_nodes == 1 and int(single.train_mask.sum()) == 1
    return [single] + list(parts[1:])


class TestOneNodeParty:
    def run(self, parts, engine):
        cfg = FedOMDConfig(max_rounds=3, patience=50, hidden=16, engine=engine)
        trainer = FedOMDTrainer(parts, cfg, seed=0)
        return trainer, trainer.run()

    @pytest.mark.parametrize("engine", ["barrier", "async"])
    def test_exchange_stays_finite(self, one_node_parts, engine):
        trainer, history = self.run(one_node_parts, engine)
        assert len(history) == 3
        assert np.isfinite([r.train_loss for r in history.records]).all()
        gm = trainer._global_moments
        assert gm is not None and gm.num_layers > 0
        for mean in gm.means:
            assert np.isfinite(mean).all()
        for layer in gm.moments:
            for moment in layer:
                assert np.isfinite(moment).all()

    def test_engines_agree(self, one_node_parts):
        _, barrier = self.run(one_node_parts, "barrier")
        _, asynch = self.run(one_node_parts, "async")
        assert asynch.metrics_equal(barrier)


class TestVirtualClockTiming:
    def test_round_times_sum_to_virtual_elapsed(self, parts):
        cfg = TrainerConfig(
            max_rounds=5, patience=50, hidden=8, engine="async", quorum=0.5
        )
        trainer = FederatedTrainer(parts, cfg, seed=0)
        history = trainer.run()
        assert len(history) == 5
        # On a VirtualClock nothing but the quorum wait advances time, so
        # each round lasts exactly its train phase and the rounds tile
        # the whole simulated timeline.
        assert sum(r.wall_time for r in history.records) == pytest.approx(
            trainer.clock.elapsed, rel=1e-12
        )
        for r in history.records:
            assert r.wall_time == r.train_time

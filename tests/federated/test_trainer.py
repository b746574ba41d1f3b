"""Integration tests for Client and the federated training loop."""

import numpy as np
import pytest

from repro.federated import Client, FederatedTrainer, TrainerConfig
from repro.federated.history import RoundRecord, TrainingHistory
from repro.gnn import GCN
from repro.graphs import load_dataset, louvain_partition


@pytest.fixture(scope="module")
def parts():
    g = load_dataset("cora", seed=0, scale=0.25)
    return louvain_partition(g, 3, np.random.default_rng(0)).parts


def make_client(graph, cid=0, seed=0):
    model = GCN(graph.num_features, graph.num_classes, hidden=16, rng=np.random.default_rng(seed))
    return Client(cid, graph, model)


class TestClient:
    def test_counts(self, parts):
        c = make_client(parts[0])
        assert c.num_nodes == parts[0].num_nodes
        assert c.num_train == int(parts[0].train_mask.sum())

    def test_train_step_returns_loss(self, parts):
        c = make_client(parts[0])
        loss = c.train_step(lambda cl: cl.ce_loss())
        assert np.isfinite(loss) and loss > 0

    def test_train_step_changes_weights(self, parts):
        c = make_client(parts[0])
        before = c.model.conv1.weight.data.copy()
        c.train_step(lambda cl: cl.ce_loss())
        assert np.abs(c.model.conv1.weight.data - before).sum() > 0

    def test_train_step_skips_unlabeled(self, parts):
        g = parts[0].copy()
        g.train_mask[:] = False
        c = make_client(g)
        before = c.model.conv1.weight.data.copy()
        assert np.isnan(c.train_step(lambda cl: cl.ce_loss()))
        np.testing.assert_array_equal(c.model.conv1.weight.data, before)

    def test_evaluate(self, parts):
        c = make_client(parts[0])
        acc, n = c.evaluate("test")
        assert 0.0 <= acc <= 1.0
        assert n == int(parts[0].test_mask.sum())

    def test_evaluate_empty_mask(self, parts):
        g = parts[0].copy()
        g.val_mask[:] = False
        acc, n = make_client(g).evaluate("val")
        assert n == 0 and np.isnan(acc)

    def test_evaluate_missing_mask(self, parts):
        g = parts[0].copy()
        g.test_mask = None
        with pytest.raises(ValueError):
            make_client(g).evaluate("test")

    def test_state_round_trip(self, parts):
        c1 = make_client(parts[0], seed=1)
        c2 = make_client(parts[0], seed=2)
        c2.set_state(c1.get_state())
        np.testing.assert_array_equal(c1.model.conv1.weight.data, c2.model.conv1.weight.data)


class TestTrainerLoop:
    def test_initial_sync(self, parts):
        tr = FederatedTrainer(parts, TrainerConfig(max_rounds=1, patience=1), seed=0)
        w0 = tr.clients[0].get_state()
        for c in tr.clients[1:]:
            for k, v in c.get_state().items():
                np.testing.assert_array_equal(v, w0[k])

    def test_trains_in_the_parties_dtype(self, parts):
        tr = FederatedTrainer(parts, TrainerConfig(max_rounds=1, patience=1), seed=0)
        assert tr.dtype == np.float32
        assert {v.dtype for v in tr.global_state.values()} == {np.dtype(np.float32)}
        mixed = [parts[0].astype(np.float64)] + list(parts[1:])
        with pytest.raises(ValueError, match="one dtype"):
            FederatedTrainer(mixed, TrainerConfig(max_rounds=1, patience=1), seed=0)

    def test_runs_and_records(self, parts):
        cfg = TrainerConfig(max_rounds=5, patience=10, hidden=16)
        tr = FederatedTrainer(parts, cfg, seed=0)
        hist = tr.run()
        assert len(hist) == 5
        assert all(np.isfinite(r.train_loss) for r in hist.records)
        assert all(0 <= r.test_acc <= 1 for r in hist.records)

    def test_aggregation_makes_models_equal(self, parts):
        cfg = TrainerConfig(max_rounds=2, patience=10, hidden=16)
        tr = FederatedTrainer(parts, cfg, seed=0)
        tr.run()
        w0 = tr.clients[0].get_state()
        for c in tr.clients[1:]:
            for k, v in c.get_state().items():
                np.testing.assert_allclose(v, w0[k])

    def test_learning_happens(self, parts):
        cfg = TrainerConfig(max_rounds=60, patience=100, hidden=32)
        tr = FederatedTrainer(parts, cfg, seed=0)
        hist = tr.run()
        chance = 1.0 / parts[0].num_classes
        assert hist.final_test_accuracy() > 1.3 * chance

    def test_early_stopping_triggers(self, parts):
        # Tiny patience: the loop must stop well before max_rounds.
        cfg = TrainerConfig(max_rounds=500, patience=3, hidden=8)
        tr = FederatedTrainer(parts, cfg, seed=0)
        hist = tr.run()
        assert len(hist) < 500

    def test_best_state_restored(self, parts):
        cfg = TrainerConfig(max_rounds=20, patience=30, hidden=16)
        tr = FederatedTrainer(parts, cfg, seed=0)
        hist = tr.run()
        # final_test_accuracy (restored snapshot) equals the best-val round's
        # test accuracy recorded in history.
        assert tr.final_test_accuracy() == pytest.approx(hist.final_test_accuracy(), abs=1e-9)

    def test_comm_traffic_grows_linearly(self, parts):
        cfg = TrainerConfig(max_rounds=4, patience=10, hidden=16)
        tr = FederatedTrainer(parts, cfg, seed=0)
        tr.run()
        stats = tr.comm.stats
        assert stats.rounds == 4
        # Per-round: gather M states + broadcast 1 state to M clients
        # + the initial sync broadcast.
        model_bytes = sum(v.nbytes for v in tr.clients[0].get_state().values())
        expected_up = 4 * 3 * model_bytes
        assert stats.uplink_bytes == expected_up

    def test_seed_reproducibility(self, parts):
        cfg = TrainerConfig(max_rounds=5, patience=10, hidden=16)
        h1 = FederatedTrainer(parts, cfg, seed=3).run()
        h2 = FederatedTrainer(parts, cfg, seed=3).run()
        assert h1.test_accuracies == h2.test_accuracies

    def test_empty_parts_rejected(self):
        with pytest.raises(ValueError):
            FederatedTrainer([], TrainerConfig())

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            TrainerConfig(max_rounds=0)
        with pytest.raises(ValueError):
            TrainerConfig(patience=0)


class TestHistory:
    def rec(self, i, val, test):
        return RoundRecord(round=i, train_loss=1.0, val_acc=val, test_acc=test)

    def test_best_and_final(self):
        h = TrainingHistory()
        h.append(self.rec(0, 0.5, 0.4))
        h.append(self.rec(1, 0.7, 0.6))
        h.append(self.rec(2, 0.6, 0.9))
        assert h.best("val_acc").round == 1
        assert h.final_test_accuracy() == 0.6  # test acc at best val

    def test_empty(self):
        h = TrainingHistory()
        assert h.best() is None
        assert np.isnan(h.final_test_accuracy())

    def test_rounds_to_reach(self):
        h = TrainingHistory()
        h.append(self.rec(0, 0.1, 0.2))
        h.append(self.rec(1, 0.2, 0.5))
        assert h.rounds_to_reach(0.4) == 1
        assert h.rounds_to_reach(0.99) is None

    def test_as_dict(self):
        h = TrainingHistory()
        h.append(self.rec(0, 0.1, 0.2))
        d = h.as_dict()
        assert d["round"] == [0] and d["test_acc"] == [0.2]


def test_a_run_that_raises_leaves_no_pool_threads(parts):
    import threading

    class FailsInRoundOne(FederatedTrainer):
        def begin_round(self, round_idx):
            if round_idx == 1:
                raise RuntimeError("round 1 fails")

    tr = FailsInRoundOne(
        parts, TrainerConfig(max_rounds=3, patience=10, hidden=8, num_workers=2), seed=0
    )
    with pytest.raises(RuntimeError, match="round 1 fails"):
        tr.run()
    assert not [t.name for t in threading.enumerate() if t.name.startswith("fl-client")]

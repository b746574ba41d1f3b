"""Robustness features of the federated loop, one class per mechanism:

* :class:`TestClientSampling` — who takes part in a round: every
  client (the paper's full participation), minus any a drop fault
  removes.
* :class:`TestLocalNaNGuard` — the *client-side* guard: a non-finite
  local loss rolls the step back instead of stepping into NaN weights.
* :class:`TestServerQuarantine` — the *server-side* guard: an upload
  that arrives non-finite anyway (corrupted channel, guard disabled) is
  excluded from FedAvg, with its ``n_i`` removed from the denominator.

Injected-fault scenarios (drop/straggler/corrupt/crash) live in
``tests/chaos/``; this module covers the always-on mechanisms.
"""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.federated import Client, FaultPlan, FederatedTrainer, TrainerConfig
from repro.federated.server import fedavg
from repro.gnn import GCN
from repro.graphs import load_dataset, louvain_partition


@pytest.fixture(scope="module")
def parts():
    g = load_dataset("cora", seed=0, scale=0.2)
    return louvain_partition(g, 5, np.random.default_rng(0)).parts


class TestClientSampling:
    def test_full_participation_default(self, parts):
        tr = FederatedTrainer(parts, TrainerConfig(max_rounds=2, patience=10, hidden=8), seed=0)
        assert len(tr.participating_clients()) == 5

    def test_unsampled_clients_untouched_within_round(self, parts):
        cfg = TrainerConfig(max_rounds=1, patience=10, hidden=8)
        plan = FaultPlan.from_spec("drop=1.0:clients=1")
        tr = FederatedTrainer(parts, cfg, seed=0, faults=plan)
        tr.injector.begin_round(0, len(tr.clients))
        idle = tr.clients[1]
        assert idle not in tr.active_clients()
        before = idle.model.conv1.weight.data.copy()
        tr._train_participants()
        np.testing.assert_array_equal(idle.model.conv1.weight.data, before)


class TestLocalNaNGuard:
    def make_client(self, parts):
        g = parts[0]
        model = GCN(g.num_features, g.num_classes, hidden=8, rng=np.random.default_rng(0))
        return Client(0, g, model)

    def test_nan_loss_skips_update(self, parts):
        c = self.make_client(parts)
        before = c.model.conv1.weight.data.copy()

        def bad_loss(client):
            return client.ce_loss() * Tensor(float("nan"))

        out = c.train_step(bad_loss, nan_guard=True)
        assert np.isnan(out)
        np.testing.assert_array_equal(c.model.conv1.weight.data, before)

    def test_nan_without_guard_propagates(self, parts):
        c = self.make_client(parts)

        def bad_loss(client):
            return client.ce_loss() * Tensor(float("nan"))

        c.train_step(bad_loss, nan_guard=False)
        assert np.isnan(c.model.conv1.weight.data).any() or np.isnan(
            c.model.conv2.weight.data
        ).any()

    def test_finite_loss_updates_normally(self, parts):
        c = self.make_client(parts)
        before = c.model.conv1.weight.data.copy()
        c.train_step(lambda cl: cl.ce_loss(), nan_guard=True)
        assert np.abs(c.model.conv1.weight.data - before).sum() > 0

    def test_guarded_training_survives_poisoned_round(self, parts):
        # A trainer whose loss explodes on round 2 must keep training.
        class Poisoned(FederatedTrainer):
            def __init__(self, *a, **kw):
                super().__init__(*a, **kw)
                self._round = 0

            def begin_round(self, round_idx):
                self._round = round_idx

            def local_loss(self, client):
                loss = client.ce_loss()
                if self._round == 2:
                    return loss * Tensor(float("inf"))
                return loss

        cfg = TrainerConfig(max_rounds=5, patience=20, hidden=8)
        tr = Poisoned(parts, cfg, seed=0)
        hist = tr.run()
        # Weights stayed finite through the poisoned round.
        assert all(
            np.isfinite(v).all() for c in tr.clients for v in c.get_state().values()
        )
        assert len(hist) == 5


class TestServerQuarantine:
    def test_quarantined_client_excluded_from_fedavg_denominator(self, parts):
        # A client whose upload is NaN must not merely have its weights
        # ignored — its n_i must leave the FedAvg denominator, so the
        # aggregate equals FedAvg over the survivors reweighted among
        # themselves.
        tr = FederatedTrainer(
            parts, TrainerConfig(max_rounds=2, patience=10, hidden=8), seed=0
        )
        poisoned = tr.clients[2]
        bad = poisoned.get_state()
        bad[next(iter(bad))][...] = np.nan
        poisoned.set_state(bad)

        got = tr.aggregate()
        survivors = [c for c in tr.clients if c.cid != poisoned.cid]
        want = fedavg(
            [c.get_state() for c in survivors],
            [max(c.num_train, 1) for c in survivors],
        )
        assert got.keys() == want.keys()
        for k in want:
            np.testing.assert_array_equal(got[k], want[k])

    def test_all_uploads_poisoned_keeps_previous_global(self, parts):
        tr = FederatedTrainer(
            parts, TrainerConfig(max_rounds=2, patience=10, hidden=8), seed=0
        )
        for c in tr.clients:
            bad = c.get_state()
            for v in bad.values():
                v[...] = np.nan
            c.set_state(bad)
        assert tr.aggregate() is None

    def test_quarantine_disabled_lets_nan_through(self, parts):
        cfg = TrainerConfig(
            max_rounds=2, patience=10, hidden=8, quarantine_nonfinite=False
        )
        tr = FederatedTrainer(parts, cfg, seed=0)
        bad = tr.clients[0].get_state()
        bad[next(iter(bad))][...] = np.nan
        tr.clients[0].set_state(bad)
        agg = tr.aggregate()
        assert any(np.isnan(v).any() for v in agg.values())

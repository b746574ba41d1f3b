"""Tests for the FedOMD trainer (Eq. 12 / Algorithm 1 end-to-end)."""

import numpy as np
import pytest

from repro.core import FedOMDConfig, FedOMDTrainer
from repro.federated.faults import FaultPlan
from repro.graphs import load_dataset, louvain_partition


@pytest.fixture(scope="module")
def parts():
    g = load_dataset("cora", seed=0, scale=0.2)
    return louvain_partition(g, 3, np.random.default_rng(0)).parts


QUICK = dict(max_rounds=5, patience=20, hidden=16)
DROP_ONE = "drop=1.0:clients=1"


class TestConfig:
    def test_paper_defaults(self):
        cfg = FedOMDConfig()
        assert cfg.alpha == 0.0005
        assert cfg.orders == (2, 3, 4, 5)
        assert cfg.num_hidden == 2
        assert cfg.use_ortho and cfg.use_cmd

    def test_invalid_alpha_beta(self):
        with pytest.raises(ValueError):
            FedOMDConfig(alpha=-1)
        with pytest.raises(ValueError):
            FedOMDConfig(beta=-1)

    def test_invalid_depth(self):
        with pytest.raises(ValueError):
            FedOMDConfig(num_hidden=0)


class TestTrainer:
    def test_runs(self, parts):
        tr = FedOMDTrainer(parts, FedOMDConfig(**QUICK), seed=0)
        hist = tr.run()
        assert len(hist) == 5
        assert all(np.isfinite(l) for l in hist.train_losses)

    def test_uses_orthogcn(self, parts):
        tr = FedOMDTrainer(parts, FedOMDConfig(**QUICK), seed=0)
        from repro.gnn import OrthoGCN

        assert all(isinstance(c.model, OrthoGCN) for c in tr.clients)

    def test_moment_exchange_happens(self, parts):
        tr = FedOMDTrainer(parts, FedOMDConfig(**QUICK), seed=0)
        assert tr._global_moments is None
        tr.begin_round(0)
        gm = tr._global_moments
        assert gm is not None
        assert gm.num_layers == 2  # num_hidden
        assert len(gm.moments[0]) == 4  # orders 2..5

    def test_no_exchange_when_cmd_disabled(self, parts):
        tr = FedOMDTrainer(parts, FedOMDConfig(use_cmd=False, **QUICK), seed=0)
        tr.begin_round(0)
        assert tr._global_moments is None

    def test_loss_decomposition(self, parts):
        # full loss >= CE-only loss when penalties are on (both are
        # non-negative additive terms).
        tr = FedOMDTrainer(parts, FedOMDConfig(beta=1.0, **QUICK), seed=0)
        tr.begin_round(0)
        c = tr.clients[0]
        c.model.eval()  # freeze dropout for comparability
        full = tr.local_loss(c).item()
        tr.omd_config.use_cmd = False
        tr.omd_config.use_ortho = False
        ce_only = tr.local_loss(c).item()
        assert full >= ce_only

    def test_cmd_loss_positive_with_noniid_parties(self, parts):
        tr = FedOMDTrainer(parts, FedOMDConfig(beta=1.0, **QUICK), seed=0)
        tr.begin_round(0)
        c = tr.clients[0]
        c.model.eval()
        full = tr.local_loss(c).item()
        tr.omd_config.use_cmd = False
        without_cmd = tr.local_loss(c).item()
        # Louvain parties are non-iid, so the CMD term is strictly > 0.
        assert full - without_cmd > 1e-6

    def test_hard_orthogonal_projects(self, parts):
        # The projection runs after local training, before aggregation
        # (FedAvg then mixes projected matrices, which needn't stay
        # orthogonal — so we check at the hook point, not after run()).
        cfg = FedOMDConfig(hard_orthogonal=True, **QUICK)
        tr = FedOMDTrainer(parts, cfg, seed=0)
        tr.begin_round(0)
        for c in tr.clients:
            c.train_step(tr.local_loss)
        tr.after_local_training(0)
        for c in tr.clients:
            for layer in c.model.ortho_layers:
                assert layer.orthogonality_residual() < 1e-5

    def test_soft_penalty_reduces_residual(self, parts):
        # With alpha >> 0, residuals should stay smaller than with alpha=0.
        def final_residual(alpha):
            cfg = FedOMDConfig(
                alpha=alpha, use_cmd=False, max_rounds=30, patience=60, hidden=16
            )
            tr = FedOMDTrainer(parts, cfg, seed=0)
            tr.run()
            return np.mean(
                [l.orthogonality_residual() for c in tr.clients for l in c.model.ortho_layers]
            )

        assert final_residual(1.0) < final_residual(0.0) + 1e-9

    def test_reproducible(self, parts):
        a = FedOMDTrainer(parts, FedOMDConfig(**QUICK), seed=2).run()
        b = FedOMDTrainer(parts, FedOMDConfig(**QUICK), seed=2).run()
        assert a.test_accuracies == b.test_accuracies

    def test_depth_config(self, parts):
        tr = FedOMDTrainer(parts, FedOMDConfig(num_hidden=4, **QUICK), seed=0)
        assert len(tr.clients[0].model.ortho_layers) == 3
        tr.begin_round(0)
        assert tr._global_moments.num_layers == 4

    def test_statistics_bytes_report(self, parts):
        tr = FedOMDTrainer(parts, FedOMDConfig(**QUICK), seed=0)
        rep = tr.statistics_bytes_last_round()
        # Headline communication claim: statistics ≪ model weights.
        assert rep["statistics_bytes_per_round_approx"] < rep["model_bytes_per_round"] / 10

    def test_statistics_bytes_formula_matches_measured(self, parts):
        # The closed-form estimate must agree with what the metered
        # channel actually moved during the exchange (float64 payloads,
        # so the agreement is exact, not approximate).
        tr = FedOMDTrainer(parts, FedOMDConfig(**QUICK), seed=0)
        tr.begin_round(0)
        rep = tr.statistics_bytes_last_round()
        assert rep["statistics_bytes_per_round_measured"] == (
            rep["statistics_bytes_per_round_approx"]
        )
        assert (
            rep["statistics_uplink_bytes_measured"]
            + rep["statistics_downlink_bytes_measured"]
            == rep["statistics_bytes_per_round_measured"]
        )


class TestPartialParticipation:
    """A dropped client neither exchanges, trains, nor pays."""

    def make(self, parts, **overrides):
        """A trainer whose client 1 is unreachable every round."""
        cfg = FedOMDConfig(**dict(QUICK, **overrides))
        return FedOMDTrainer(parts, cfg, seed=0, faults=FaultPlan.from_spec(DROP_ONE))

    def test_end_to_end_smoke(self, parts):
        hist = self.make(parts).run()
        assert len(hist) == QUICK["max_rounds"]
        assert all(np.isfinite(l) for l in hist.train_losses)

    def test_exchange_restricted_to_participants(self, parts):
        tr = self.make(parts)
        tr.injector.begin_round(0, len(tr.clients))
        participants = tr.active_clients()
        assert 0 < len(participants) < len(tr.clients)
        before = tr.comm.snapshot()
        tr.begin_round(0)
        delta = tr.comm.snapshot() - before
        # 2 statistic rounds × participants only: the dropped client
        # contributes zero uplink messages (and bytes) this round.
        assert delta.uplink_messages == 2 * len(participants)
        assert delta.downlink_messages == 2 * len(participants)
        rep = tr.statistics_bytes_last_round()
        assert delta.total_bytes == rep["statistics_bytes_per_round_measured"]
        # The formula, evaluated at the participant count, agrees too.
        assert rep["statistics_bytes_per_round_approx"] == delta.total_bytes

    def test_global_moments_come_from_participants_only(self, parts):
        from repro.core.exchange import pooled_central_moments
        from repro.autograd import no_grad

        tr = self.make(parts)
        tr.injector.begin_round(0, len(tr.clients))
        tr.begin_round(0)
        hidden = []
        for c in tr.active_clients():
            c.model.eval()
            with no_grad():
                _, h = c.model.forward_with_hidden(c.graph)
            hidden.append([t.data for t in h])
        want = pooled_central_moments(hidden, orders=tr.omd_config.orders)
        got = tr._global_moments
        for l in range(got.num_layers):
            np.testing.assert_allclose(got.means[l], want.means[l], rtol=1e-10)

    def test_unsampled_clients_not_projected(self, parts):
        tr = self.make(parts, hard_orthogonal=True)
        tr.injector.begin_round(0, len(tr.clients))
        active = {c.cid for c in tr.active_clients()}
        dropped = [c for c in tr.clients if c.cid not in active]
        assert dropped
        before = {c.cid: c.get_state() for c in dropped}
        tr.begin_round(0)
        for c in tr.active_clients():
            c.train_step(tr.local_loss)
        tr.after_local_training(0)
        for c in dropped:
            for k, v in c.get_state().items():
                np.testing.assert_array_equal(v, before[c.cid][k])

    def test_participation_reduces_uplink(self, parts):
        full = FedOMDTrainer(parts, FedOMDConfig(**QUICK), seed=0)
        full.run()
        partial = self.make(parts)
        partial.run()
        assert partial.comm.stats.uplink_bytes < full.comm.stats.uplink_bytes


class TestFeatureMemory:
    def test_training_never_builds_dense_features(self):
        # FedOMD reads only the CSR features: each party's features stay
        # far below n·f float64s.
        g = load_dataset("cora", seed=0, scale=0.2)
        fresh = louvain_partition(g, 3, np.random.default_rng(0)).parts
        FedOMDTrainer(fresh, FedOMDConfig(**QUICK), seed=0).run()
        for p in fresh:
            assert p.x.nbytes < p.num_nodes * p.num_features * 8 / 20

"""Tests for the seven baseline trainers (shared contract + specifics)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.baselines import (
    ALL_BASELINES,
    FedGCNTrainer,
    FedLITTrainer,
    FedMLPTrainer,
    FedProxTrainer,
    FedSagePlusTrainer,
    LocGCNTrainer,
    ScaffoldTrainer,
)
from repro.federated import TrainerConfig
from repro.graphs import load_dataset, louvain_partition


@pytest.fixture(scope="module")
def parts():
    g = load_dataset("cora", seed=0, scale=0.2)
    return louvain_partition(g, 3, np.random.default_rng(0)).parts


QUICK = dict(max_rounds=6, patience=20, hidden=16)


class TestSharedContract:
    @pytest.mark.parametrize("name", sorted(ALL_BASELINES))
    def test_runs_and_reports(self, parts, name):
        tr = ALL_BASELINES[name](parts, TrainerConfig(**QUICK), seed=0)
        hist = tr.run()
        assert len(hist) >= 1
        acc = hist.final_test_accuracy()
        assert 0.0 <= acc <= 1.0

    @pytest.mark.parametrize("name", sorted(ALL_BASELINES))
    def test_reproducible(self, parts, name):
        a = ALL_BASELINES[name](parts, TrainerConfig(**QUICK), seed=1).run()
        b = ALL_BASELINES[name](parts, TrainerConfig(**QUICK), seed=1).run()
        assert a.test_accuracies == b.test_accuracies

    def test_registry_names(self):
        assert set(ALL_BASELINES) == {
            "fedmlp",
            "fedprox",
            "scaffold",
            "locgcn",
            "fedgcn",
            "fedlit",
            "fedsage+",
        }


class TestLocGCN:
    def test_no_communication(self, parts):
        tr = LocGCNTrainer(parts, TrainerConfig(**QUICK), seed=0)
        tr.run()
        assert tr.comm.stats.total_bytes == 0

    def test_models_diverge(self, parts):
        tr = LocGCNTrainer(parts, TrainerConfig(**QUICK), seed=0)
        tr.run()
        w0 = tr.clients[0].model.conv1.weight.data
        w1 = tr.clients[1].model.conv1.weight.data
        assert np.abs(w0 - w1).sum() > 0


class TestFedGCNvsMLP:
    def test_graph_structure_helps(self, parts):
        # The LocGCN/FedGCN vs FedMLP gap of Table 4 should appear even
        # on a short run of the synthetic twin.
        cfg = TrainerConfig(max_rounds=50, patience=100, hidden=32)
        mlp = FedMLPTrainer(parts, cfg, seed=0).run().final_test_accuracy()
        gcn = FedGCNTrainer(parts, cfg, seed=0).run().final_test_accuracy()
        assert gcn > mlp


class TestFedProx:
    def test_proximal_term_zero_at_anchor(self, parts):
        tr = FedProxTrainer(parts, TrainerConfig(**QUICK), seed=0, mu=1.0)
        # At initialization, W == W_global, so FedProx loss == plain CE.
        c = tr.clients[0]
        c.model.eval()  # freeze dropout so both losses see the same forward
        assert tr.local_loss(c).item() == pytest.approx(c.ce_loss().item(), rel=1e-9)

    def test_proximal_term_positive_off_anchor(self, parts):
        tr = FedProxTrainer(parts, TrainerConfig(**QUICK), seed=0, mu=1.0)
        c = tr.clients[0]
        c.model.fc1.weight.data += 0.5
        assert tr.local_loss(c).item() > c.ce_loss().item()

    def test_mu_zero_is_fedmlp(self, parts):
        cfg = TrainerConfig(**QUICK)
        prox = FedProxTrainer(parts, cfg, seed=0, mu=0.0).run()
        mlp = FedMLPTrainer(parts, cfg, seed=0).run()
        assert prox.test_accuracies == pytest.approx(mlp.test_accuracies)

    def test_invalid_mu(self, parts):
        with pytest.raises(ValueError):
            FedProxTrainer(parts, TrainerConfig(**QUICK), mu=-1.0)

    def test_large_mu_restricts_drift(self, parts):
        # With a single local epoch per round the weights always sit at the
        # anchor when a step begins (zero proximal gradient), so the effect
        # only shows with several local epochs.
        cfg = TrainerConfig(max_rounds=4, patience=20, hidden=16, local_epochs=5)
        free = FedProxTrainer(parts, cfg, seed=0, mu=0.0)
        tight = FedProxTrainer(parts, cfg, seed=0, mu=100.0)
        w0_free = free.clients[0].get_state()
        w0_tight = tight.clients[0].get_state()
        free.run()
        tight.run()
        drift_free = sum(
            np.abs(free.clients[0].get_state()[k] - w0_free[k]).sum() for k in w0_free
        )
        drift_tight = sum(
            np.abs(tight.clients[0].get_state()[k] - w0_tight[k]).sum() for k in w0_tight
        )
        assert drift_tight < drift_free


class TestScaffold:
    def test_control_variates_initialized_zero(self, parts):
        tr = ScaffoldTrainer(parts, TrainerConfig(**QUICK), seed=0)
        assert all(np.all(v == 0) for v in tr._server_c.values())

    def test_control_variates_update(self, parts):
        tr = ScaffoldTrainer(parts, TrainerConfig(max_rounds=3, patience=20, hidden=16), seed=0)
        tr.run()
        total = sum(np.abs(v).sum() for v in tr._server_c.values())
        assert total > 0

    def test_correction_is_linear_in_params(self, parts):
        # With c == c_i == 0 the loss equals plain CE.
        tr = ScaffoldTrainer(parts, TrainerConfig(**QUICK), seed=0)
        c = tr.clients[0]
        c.model.eval()  # freeze dropout so both losses see the same forward
        assert tr.local_loss(c).item() == pytest.approx(c.ce_loss().item(), rel=1e-9)


class TestFedLIT:
    def test_typed_adjacencies_partition_edges(self, parts):
        tr = FedLITTrainer(parts, TrainerConfig(**QUICK), seed=0, num_types=2)
        for c in tr.clients:
            s_list = tr._typed_adjs[c.cid]
            assert len(s_list) == 2
            # Typed adjacencies (pre-normalization they partition edges);
            # normalized versions have self-loops on every node, so just
            # check shapes and non-emptiness of the union.
            for s in s_list:
                assert s.shape == (c.graph.num_nodes, c.graph.num_nodes)

    def test_invalid_num_types(self, parts):
        with pytest.raises(ValueError):
            FedLITTrainer(parts, TrainerConfig(**QUICK), num_types=0)

    def test_reclustering_runs(self, parts):
        cfg = TrainerConfig(max_rounds=6, patience=20, hidden=16)
        tr = FedLITTrainer(parts, cfg, seed=0, num_types=2, recluster_every=2)
        tr.run()  # exercises recluster + alignment paths

    def test_kmeans_basic(self):
        from repro.baselines.fedlit import kmeans

        rng = np.random.default_rng(0)
        x = np.concatenate([rng.normal(0, 0.1, (30, 2)), rng.normal(5, 0.1, (30, 2))])
        assign, cent = kmeans(x, 2, rng)
        assert len(np.unique(assign[:30])) == 1
        assert len(np.unique(assign[30:])) == 1
        assert assign[0] != assign[30]

    def test_kmeans_more_clusters_than_points(self):
        from repro.baselines.fedlit import kmeans

        x = np.zeros((2, 3))
        assign, cent = kmeans(x, 5, np.random.default_rng(0))
        assert cent.shape[0] == 2

    def test_kmeans_rejects_empty(self):
        from repro.baselines.fedlit import kmeans

        with pytest.raises(ValueError):
            kmeans(np.zeros((0, 2)), 2, np.random.default_rng(0))


class TestFedSagePlus:
    def test_hide_edges_splits(self, parts):
        from repro.baselines.fedsage import hide_edges

        g = parts[0]
        vis, count, feat = hide_edges(g, 0.3, np.random.default_rng(0))
        assert vis.num_edges < g.num_edges
        assert count.sum() > 0
        assert feat.shape == g.x.shape

    def test_hide_edges_counts_consistent(self, parts):
        from repro.baselines.fedsage import hide_edges

        g = parts[0]
        vis, count, _ = hide_edges(g, 0.5, np.random.default_rng(1))
        # Hidden edge endpoints: total count = 2 × hidden edges.
        hidden_edges = g.num_edges - vis.num_edges
        assert count.sum() == pytest.approx(2 * hidden_edges)

    def test_hide_edges_invalid_frac(self, parts):
        from repro.baselines.fedsage import hide_edges

        with pytest.raises(ValueError):
            hide_edges(parts[0], 0.0, np.random.default_rng(0))

    def test_mend_graph_adds_nodes(self, parts):
        from repro.baselines.fedsage import mend_graph

        g = parts[0]
        deg = np.zeros(g.num_nodes)
        deg[:5] = 2.0
        feats = np.random.default_rng(0).random((g.num_nodes, g.num_features))
        mended = mend_graph(g, deg, feats)
        assert mended.num_nodes == g.num_nodes + 10
        # Generated nodes excluded from all masks.
        assert mended.train_mask[g.num_nodes :].sum() == 0
        assert mended.test_mask[g.num_nodes :].sum() == 0

    def test_mend_graph_no_predictions_is_identity(self, parts):
        from repro.baselines.fedsage import mend_graph

        g = parts[0]
        mended = mend_graph(g, np.zeros(g.num_nodes), g.x.toarray())
        assert mended is g

    def test_mend_caps_new_neighbors(self, parts):
        from repro.baselines.fedsage import mend_graph

        g = parts[0]
        deg = np.full(g.num_nodes, 100.0)
        mended = mend_graph(g, deg, g.x.toarray(), max_new_per_node=1)
        assert mended.num_nodes == 2 * g.num_nodes

    def test_mended_features_keep_generated_rows_dense_and_apart(self, parts):
        from repro.baselines.fedsage import MendedGraph, MendedSAGE, mend_graph
        from repro.gnn import SAGE
        from repro.graphs import Graph

        # In float64, where the two products agree to the tolerances below.
        g = parts[0].astype(np.float64)
        rng = np.random.default_rng(1)
        deg = rng.integers(0, 4, g.num_nodes).astype(float)
        feats = rng.random((g.num_nodes, g.num_features))
        mended = mend_graph(g, deg, feats)
        assert isinstance(mended, MendedGraph)
        # The CSR stores the party's entries only; the generated rows are dense.
        assert mended.x.shape == (mended.num_nodes, g.num_features)
        assert mended.x.nnz == g.x.nnz
        counts = np.minimum(np.round(deg).astype(int), 3)
        np.testing.assert_array_equal(mended.x_gen, np.repeat(feats, counts, axis=0))
        # The same logits and gradients as SAGE over one CSR of all rows.
        stacked = Graph(
            x=sp.vstack([g.x.to_scipy(), sp.csr_matrix(mended.x_gen)]),
            adj=mended.adj,
            y=mended.y,
            num_classes=mended.num_classes,
        )
        ours = MendedSAGE(g.num_features, g.num_classes, hidden=16, rng=np.random.default_rng(0))
        ref = SAGE(g.num_features, g.num_classes, hidden=16, rng=np.random.default_rng(0))
        ours.eval()
        ref.eval()
        a, b = ours(mended), ref(stacked)
        np.testing.assert_allclose(a.data, b.data, rtol=1e-10, atol=1e-12)
        a.sum().backward()
        b.sum().backward()
        for p, q in zip(ours.parameters(), ref.parameters()):
            np.testing.assert_allclose(p.grad, q.grad, rtol=1e-10, atol=1e-11)

    def test_full_pipeline_mends(self, parts):
        tr = FedSagePlusTrainer(
            parts, TrainerConfig(**QUICK), seed=0, gen_epochs=4, gen_fed_every=2
        )
        # Mended graphs should not be smaller than the originals.
        for c, g in zip(tr.clients, parts):
            assert c.graph.num_nodes >= g.num_nodes


class TestSparseFeatures:
    """No trainer or model densifies a party's feature matrix: every first
    layer reads the CSR ``graph.x``, so ``CSRMatrix.toarray`` may raise."""

    @pytest.fixture
    def no_dense_features(self, monkeypatch):
        from repro.graphs.csr import CSRMatrix

        def refuse(self):
            raise AssertionError(f"densified a {self.shape} feature matrix")

        monkeypatch.setattr(CSRMatrix, "toarray", refuse)
        # Fresh graphs: nothing built before the patch can serve a dense copy.
        g = load_dataset("cora", seed=0, scale=0.2)
        return g, louvain_partition(g, 3, np.random.default_rng(0)).parts

    #: FedLIT re-clusters in round 1 from its first layer's output;
    #: FedSage+ trains its generators briefly.
    KWARGS = {"fedlit": {"recluster_every": 1}, "fedsage+": {"gen_epochs": 2, "gen_fed_every": 1}}

    @pytest.mark.parametrize("name", sorted(ALL_BASELINES))
    def test_baseline_trains_on_sparse_features(self, no_dense_features, name):
        _, parts = no_dense_features
        cfg = TrainerConfig(max_rounds=2, patience=20, hidden=16)
        trainer = ALL_BASELINES[name](parts, cfg, seed=0, **self.KWARGS.get(name, {}))
        assert len(trainer.run()) == 2

    def test_fedomd_trains_on_sparse_features(self, no_dense_features):
        from repro.core import FedOMDConfig, FedOMDTrainer

        _, parts = no_dense_features
        cfg = FedOMDConfig(max_rounds=2, patience=20, hidden=16)
        assert len(FedOMDTrainer(parts, cfg, seed=0).run()) == 2

    @pytest.mark.parametrize("model", ["SGC", "SAGE", "APPNP", "GAT"])
    def test_model_forward_on_sparse_features(self, no_dense_features, model):
        import repro.gnn as gnn

        g, _ = no_dense_features
        m = getattr(gnn, model)(g.num_features, g.num_classes, rng=np.random.default_rng(0))
        logits = m(g)
        logits.sum().backward()
        assert logits.shape == (g.num_nodes, g.num_classes)

"""Tests for the extension backbones: APPNP, GAT (+ new autograd ops)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.autograd import Tensor, gradcheck, leaky_relu, scatter_add
from repro.gnn import APPNP, GAT, GATConv
from repro.graphs import load_dataset
from repro.nn import Adam, cross_entropy

RNG = np.random.default_rng(17)


@pytest.fixture(scope="module")
def graph():
    return load_dataset("cora", seed=0, scale=0.12)


class TestNewOps:
    def test_leaky_relu_values(self):
        x = Tensor([-2.0, 3.0])
        np.testing.assert_allclose(leaky_relu(x, 0.2).data, [-0.4, 3.0])

    def test_leaky_relu_grad(self):
        x = Tensor(RNG.standard_normal((4, 3)), requires_grad=True)
        assert gradcheck(lambda t: (leaky_relu(t, 0.2) ** 2).sum(), [x])

    def test_scatter_add_values(self):
        src = Tensor([[1.0], [2.0], [3.0]])
        out = scatter_add(src, np.array([0, 0, 2]), 3)
        np.testing.assert_array_equal(out.data, [[3.0], [0.0], [3.0]])

    def test_scatter_add_grad(self):
        src = Tensor(RNG.standard_normal((5, 2)), requires_grad=True)
        idx = np.array([0, 1, 1, 2, 0])
        assert gradcheck(lambda t: (scatter_add(t, idx, 3) ** 2).sum(), [src])

    def test_scatter_add_validates(self):
        with pytest.raises(ValueError):
            scatter_add(Tensor(np.zeros((2, 1))), np.array([0]), 3)
        with pytest.raises(ValueError):
            scatter_add(Tensor(np.zeros((2, 1))), np.array([0, 5]), 3)

    def test_scatter_gather_roundtrip(self):
        # scatter_add after gather with unique idx is the identity.
        x = Tensor(RNG.standard_normal((4, 3)), requires_grad=True)
        idx = np.array([2, 0, 3, 1])
        out = scatter_add(x[idx], idx, 4)
        np.testing.assert_allclose(out.data, x.data)


class TestGATConv:
    def test_attention_rows_sum_to_one(self, graph):
        # The α per destination forms a distribution: aggregating a
        # constant feature must return that constant.
        conv = GATConv(4, 4, rng=np.random.default_rng(0))
        conv.weight.data[...] = np.eye(4)
        conv.bias.data[...] = 0.0
        edges = GATConv.edge_index(graph.adj)
        out = conv(edges, Tensor(np.ones((graph.num_nodes, 4))))
        np.testing.assert_allclose(out.data, 1.0, atol=1e-10)

    def test_gradcheck_small(self):
        adj = sp.csr_matrix(
            np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
        )
        conv = GATConv(3, 2, rng=np.random.default_rng(1))
        edges = GATConv.edge_index(adj)
        x = Tensor(RNG.standard_normal((3, 3)), requires_grad=True)
        assert gradcheck(lambda t: (conv(edges, t) ** 2).sum(), [x], atol=1e-4, rtol=1e-3)

    def test_self_loops_included(self):
        adj = sp.csr_matrix((3, 3))  # no edges at all
        src, dst = GATConv.edge_index(adj)
        assert len(src) == 3  # the three self loops

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            GATConv(0, 2)


class TestBackboneModels:
    @pytest.mark.parametrize("cls", [APPNP, GAT])
    def test_logit_shape(self, graph, cls):
        m = cls(graph.num_features, graph.num_classes, hidden=16, rng=np.random.default_rng(0))
        assert m(graph).shape == (graph.num_nodes, graph.num_classes)

    @pytest.mark.parametrize("cls", [APPNP, GAT])
    def test_training_reduces_loss(self, graph, cls):
        from repro.autograd import no_grad

        m = cls(graph.num_features, graph.num_classes, hidden=16, rng=np.random.default_rng(1))
        opt = Adam(m.parameters(), lr=0.02)

        def val():
            m.eval()
            with no_grad():
                return cross_entropy(m(graph), graph.y, graph.train_mask).item()

        before = val()
        m.train()
        for _ in range(15):
            opt.zero_grad()
            cross_entropy(m(graph), graph.y, graph.train_mask).backward()
            opt.step()
        assert val() < before

    def test_appnp_teleport_one_ignores_graph(self, graph):
        # teleport=1.0 ⇒ propagation is a no-op: output equals the MLP head.
        from repro.autograd import no_grad

        m = APPNP(graph.num_features, graph.num_classes, hidden=8, k=3, teleport=1.0,
                  dropout_p=0.0, rng=np.random.default_rng(2)).eval()
        with no_grad():
            z = m(graph).data
            h = m.fc2(m.fc1(Tensor(graph.x.toarray())).relu()).data
        np.testing.assert_allclose(z, h, atol=1e-12)

    def test_appnp_validation(self):
        with pytest.raises(ValueError):
            APPNP(4, 2, k=0)
        with pytest.raises(ValueError):
            APPNP(4, 2, teleport=0.0)

    def test_appnp_deep_propagation_no_blowup(self, graph):
        from repro.autograd import no_grad

        m = APPNP(graph.num_features, graph.num_classes, hidden=8, k=50,
                  rng=np.random.default_rng(3)).eval()
        with no_grad():
            assert np.all(np.isfinite(m(graph).data))

    def test_fedavg_compatible(self, graph):
        # Backbones slot into the federated loop via build_model.
        from repro.federated import FederatedTrainer, TrainerConfig
        from repro.graphs import louvain_partition

        parts = louvain_partition(graph, 3, np.random.default_rng(0)).parts

        class FedAPPNP(FederatedTrainer):
            def build_model(self, g, rng):
                return APPNP(g.num_features, g.num_classes, hidden=16, rng=rng)

        hist = FedAPPNP(parts, TrainerConfig(max_rounds=3, patience=10, hidden=16), seed=0).run()
        assert len(hist) == 3

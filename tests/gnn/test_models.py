"""Tests for the model zoo: shapes, hidden outputs, trainability."""

import gc

import numpy as np
import pytest
import scipy.sparse as sp

from repro.autograd import Tensor, no_grad, relu
from repro.gnn import GCN, MLP, SAGE, SGC, OrthoGCN
from repro.gnn.models import GAT
from repro.graphs import load_dataset
from repro.graphs.data import Graph
from repro.graphs.laplacian import row_normalized_adjacency
from repro.nn import Adam, accuracy, cross_entropy

MODELS = {
    "mlp": lambda g, rng: MLP(g.num_features, g.num_classes, hidden=16, rng=rng),
    "gcn": lambda g, rng: GCN(g.num_features, g.num_classes, hidden=16, rng=rng),
    "sgc": lambda g, rng: SGC(g.num_features, g.num_classes, rng=rng),
    "sage": lambda g, rng: SAGE(g.num_features, g.num_classes, hidden=16, rng=rng),
    "ortho": lambda g, rng: OrthoGCN(g.num_features, g.num_classes, hidden=16, rng=rng),
}


@pytest.fixture(scope="module")
def graph():
    return load_dataset("cora", seed=0, scale=0.15)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_logit_shape(graph, name):
    model = MODELS[name](graph, np.random.default_rng(0))
    out = model(graph)
    assert out.shape == (graph.num_nodes, graph.num_classes)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_forward_with_hidden_consistent(graph, name):
    model = MODELS[name](graph, np.random.default_rng(0)).eval()
    with no_grad():
        logits1, hidden = model.forward_with_hidden(graph)
        logits2 = model(graph)
    np.testing.assert_allclose(logits1.data, logits2.data)
    for h in hidden:
        assert h.shape[0] == graph.num_nodes


@pytest.mark.parametrize("name", sorted(MODELS))
def test_short_training_reduces_loss(graph, name):
    model = MODELS[name](graph, np.random.default_rng(1))
    opt = Adam(model.parameters(), lr=0.01)
    labels = graph.y

    def loss_value():
        model.eval()
        with no_grad():
            return cross_entropy(model(graph), labels, graph.train_mask).item()

    before = loss_value()
    model.train()
    for _ in range(15):
        opt.zero_grad()
        cross_entropy(model(graph), labels, graph.train_mask).backward()
        opt.step()
    assert loss_value() < before


def test_gcn_beats_chance_quickly(graph):
    model = GCN(graph.num_features, graph.num_classes, hidden=32, rng=np.random.default_rng(2))
    opt = Adam(model.parameters(), lr=0.01, weight_decay=1e-4)
    model.train()
    for _ in range(60):
        opt.zero_grad()
        cross_entropy(model(graph), graph.y, graph.train_mask).backward()
        opt.step()
    model.eval()
    with no_grad():
        acc = accuracy(model(graph), graph.y, graph.test_mask)
    assert acc > 1.5 / graph.num_classes


class TestOrthoGCNSpecifics:
    def test_table1_structure_default(self, graph):
        m = OrthoGCN(graph.num_features, graph.num_classes, hidden=16, num_hidden=2)
        # 2 hidden layers => 1 OrthoConv between the two GCNConvs.
        assert len(m.ortho_layers) == 1

    def test_depth_scaling(self, graph):
        m = OrthoGCN(graph.num_features, graph.num_classes, hidden=8, num_hidden=10)
        assert len(m.ortho_layers) == 9

    def test_hidden_count_matches_depth(self, graph):
        m = OrthoGCN(graph.num_features, graph.num_classes, hidden=8, num_hidden=4).eval()
        with no_grad():
            _, hidden = m.forward_with_hidden(graph)
        assert len(hidden) == 4

    def test_hidden_are_nonnegative(self, graph):
        m = OrthoGCN(graph.num_features, graph.num_classes, hidden=8).eval()
        with no_grad():
            _, hidden = m.forward_with_hidden(graph)
        for h in hidden:
            assert h.data.min() >= 0.0  # post-ReLU

    def test_ortho_weights_list(self, graph):
        m = OrthoGCN(graph.num_features, graph.num_classes, hidden=8, num_hidden=3)
        ws = m.ortho_weights()
        assert len(ws) == 2
        assert all(w.shape == (8, 8) for w in ws)

    def test_project_orthogonal_all_layers(self, graph):
        m = OrthoGCN(
            graph.num_features, graph.num_classes, hidden=8, num_hidden=4,
            rng=np.random.default_rng(7),
        )
        rng = np.random.default_rng(8)
        for layer in m.ortho_layers:
            # Perturb off the manifold but keep the matrix well-conditioned.
            layer.weight.data += 0.1 * rng.standard_normal((8, 8))
        m.project_orthogonal(iterations=30)
        for layer in m.ortho_layers:
            assert layer.orthogonality_residual() < 1e-6

    def test_invalid_depth(self, graph):
        with pytest.raises(ValueError):
            OrthoGCN(4, 2, num_hidden=0)

    def test_parameters_include_all_layers(self, graph):
        m = OrthoGCN(graph.num_features, graph.num_classes, hidden=8, num_hidden=3)
        names = {n for n, _ in m.named_parameters()}
        assert "conv_in.weight" in names
        assert "ortho0.weight" in names and "ortho1.weight" in names
        assert "conv_out.weight" in names

    def test_seeded_models_identical(self, graph):
        a = OrthoGCN(graph.num_features, graph.num_classes, rng=np.random.default_rng(5))
        b = OrthoGCN(graph.num_features, graph.num_classes, rng=np.random.default_rng(5))
        for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)


class TestSGCSpecifics:
    def test_invalid_k(self):
        with pytest.raises(ValueError):
            SGC(4, 2, k=0)

    def test_linear_in_features(self, graph):
        # SGC logits are linear in X: f(2X) == 2 f(X) when bias is zero.
        m = SGC(graph.num_features, graph.num_classes, rng=np.random.default_rng(0))
        m.fc.bias.data[...] = 0.0
        g2 = Graph(
            x=2.0 * graph.x.toarray(), adj=graph.adj, y=graph.y, num_classes=graph.num_classes
        )
        with no_grad():
            np.testing.assert_allclose(m(g2).data, 2 * m(graph).data, atol=1e-9)


def _toy_graph(edges, n=6, f=4, seed=0):
    rng = np.random.default_rng(seed)
    rows = [u for u, v in edges] + [v for u, v in edges]
    cols = [v for u, v in edges] + [u for u, v in edges]
    adj = sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    return Graph(
        x=rng.standard_normal((n, f)),
        adj=adj,
        y=rng.integers(0, 2, size=n),
        num_classes=2,
    )


RING_EDGES = [(i, (i + 1) % 6) for i in range(6)]
STAR_EDGES = [(0, i) for i in range(1, 6)]


class TestOperatorCacheIdentity:
    """Propagation operators are cached on the Graph, never keyed on id().

    Regression for the id(graph)-keyed model-side caches: CPython reuses
    object addresses after garbage collection, so a freshly created
    graph could silently receive a *dead* graph's aggregator/edge list.
    """

    def test_mean_adj_cached_on_graph(self):
        g = _toy_graph(RING_EDGES)
        assert g.mean_op is g.mean_op  # computed once
        np.testing.assert_allclose(
            g.mean_op.toarray(), row_normalized_adjacency(g.adj).toarray()
        )

    def test_edge_index_cached_on_graph(self):
        from repro.gnn import GATConv

        g = _toy_graph(RING_EDGES)
        assert g.edge_index is g.edge_index
        src, dst = g.edge_index
        want_src, want_dst = GATConv.edge_index(g.adj)
        np.testing.assert_array_equal(src, want_src)
        np.testing.assert_array_equal(dst, want_dst)

    def test_copy_drops_operator_caches(self):
        g = _toy_graph(RING_EDGES)
        g.mean_op, g.edge_index  # populate
        c = g.copy()
        assert c._mean_op is None and c._edge_index is None

    def test_sequential_graphs_at_same_address_do_not_alias(self):
        # Force the id-reuse scenario: drop a ring graph, allocate star
        # graphs until one lands on the recycled address.  Whether or
        # not the collision happens (it almost always does in CPython),
        # the star graph must yield its own operator, not the ring's.
        model = SAGE(4, 2, hidden=8, rng=np.random.default_rng(0)).eval()
        ring = _toy_graph(RING_EDGES)
        with no_grad():
            model(ring)  # old code would cache under id(ring)
        ring_id = id(ring)
        del ring
        gc.collect()
        star = None
        for seed in range(64):
            candidate = _toy_graph(STAR_EDGES, seed=seed)
            if id(candidate) == ring_id:
                star = candidate
                break
            del candidate
        if star is None:  # pragma: no cover - allocator-dependent fallback
            star = _toy_graph(STAR_EDGES)
        with no_grad():
            got = model(star).data
            m = row_normalized_adjacency(star.adj)
            h = relu(model.conv1(m, Tensor(star.x.toarray())))
            want = model.conv2(m, h).data
        np.testing.assert_allclose(got, want)
        np.testing.assert_allclose(
            star.mean_op.toarray(), row_normalized_adjacency(star.adj).toarray()
        )

    def test_gat_uses_graph_edges(self):
        model = GAT(4, 2, hidden=8, rng=np.random.default_rng(0)).eval()
        ring = _toy_graph(RING_EDGES)
        with no_grad():
            model(ring)
        del ring
        gc.collect()
        star = _toy_graph(STAR_EDGES)
        with no_grad():
            got = model(star).data
            h = relu(model.conv1(star.edge_index, Tensor(star.x.toarray())))
            want = model.conv2(star.edge_index, h).data
        np.testing.assert_allclose(got, want)

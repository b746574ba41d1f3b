"""Tests for the Graph container and normalized propagation operators."""

import dataclasses
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from repro.graphs import Graph, add_self_loops, normalized_adjacency
from repro.graphs.laplacian import row_normalized_adjacency, spectral_radius_bound


def tiny_graph(n=6, seed=0, num_classes=3):
    rng = np.random.default_rng(seed)
    adj = sp.random(n, n, density=0.4, random_state=seed)
    adj = ((adj + adj.T) > 0).astype(float).tocsr()
    adj.setdiag(0)
    adj.eliminate_zeros()
    x = rng.standard_normal((n, 4))
    y = rng.integers(0, num_classes, n)
    return Graph(x=x, adj=adj, y=y, num_classes=num_classes)


class TestGraphContainer:
    def test_basic_properties(self):
        g = tiny_graph()
        assert g.num_nodes == 6
        assert g.num_features == 4
        assert g.num_edges == g.adj.nnz // 2

    def test_rejects_adj_shape_mismatch(self):
        with pytest.raises(ValueError):
            Graph(x=np.zeros((3, 2)), adj=sp.identity(4), y=np.zeros(3, dtype=int), num_classes=2)

    def test_rejects_label_count_mismatch(self):
        with pytest.raises(ValueError):
            Graph(x=np.zeros((3, 2)), adj=sp.csr_matrix((3, 3)), y=np.zeros(2, dtype=int), num_classes=2)

    def test_rejects_out_of_range_labels(self):
        with pytest.raises(ValueError):
            Graph(x=np.zeros((2, 2)), adj=sp.csr_matrix((2, 2)), y=np.array([0, 5]), num_classes=2)

    def test_rejects_bad_mask_shape(self):
        with pytest.raises(ValueError):
            Graph(
                x=np.zeros((2, 2)),
                adj=sp.csr_matrix((2, 2)),
                y=np.zeros(2, dtype=int),
                num_classes=1,
                train_mask=np.array([True]),
            )

    def test_rejects_nonpositive_classes(self):
        with pytest.raises(ValueError):
            Graph(x=np.zeros((2, 2)), adj=sp.csr_matrix((2, 2)), y=np.zeros(2, dtype=int), num_classes=0)

    def test_validate_symmetry(self):
        adj = sp.csr_matrix(np.array([[0, 1], [0, 0]], dtype=float))
        g = Graph(x=np.zeros((2, 2)), adj=adj, y=np.zeros(2, dtype=int), num_classes=1)
        with pytest.raises(ValueError):
            g.validate()

    def test_validate_diagonal(self):
        adj = sp.identity(3, format="csr")
        g = Graph(x=np.zeros((3, 2)), adj=adj, y=np.zeros(3, dtype=int), num_classes=1)
        with pytest.raises(ValueError):
            g.validate()
        # Entries that cancel in a sum are still a non-empty diagonal.
        adj = sp.diags([1.0, -1.0, 0.0], format="csr")
        g = Graph(x=np.zeros((3, 2)), adj=adj, y=np.zeros(3, dtype=int), num_classes=1)
        with pytest.raises(ValueError, match="diagonal"):
            g.validate()

    def test_validate_nan_features(self):
        g = tiny_graph()
        g.x.data[0] = np.nan
        with pytest.raises(ValueError):
            g.validate()

    def test_validate_passes_clean(self):
        tiny_graph().validate()

    def test_validate_is_warning_free(self):
        # The old `(adj != adj.T).nnz` check tripped scipy's
        # SparseEfficiencyWarning; validate must survive `-W error`.
        g = tiny_graph(12, seed=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g.validate()

    def test_validate_asymmetry_detected_warning_free(self):
        adj = sp.csr_matrix(np.array([[0, 1], [0, 0]], dtype=float))
        g = Graph(x=np.zeros((2, 2)), adj=adj, y=np.zeros(2, dtype=int), num_classes=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="symmetric"):
                g.validate()

    def test_validate_tolerance_admits_float_noise(self):
        base = tiny_graph(8, seed=2).adj.astype(float)
        noisy = base.copy()
        noisy.data = noisy.data + np.linspace(0, 1e-13, noisy.data.size)
        g = Graph(
            x=np.zeros((8, 2)), adj=noisy, y=np.zeros(8, dtype=int), num_classes=1
        )
        with pytest.raises(ValueError):
            g.validate()  # exact symmetry demanded by default
        g.validate(atol=1e-9)  # explicit tolerance admits the noise

    def test_s_op_cached_container(self):
        g = tiny_graph()
        assert g.s_op is g.s_op
        np.testing.assert_array_equal(g.s_op.toarray(), normalized_adjacency(g.adj).toarray())

    def test_mean_op_cached_container(self):
        g = tiny_graph()
        assert g.mean_op is g.mean_op
        np.testing.assert_array_equal(
            g.mean_op.toarray(), row_normalized_adjacency(g.adj).toarray()
        )

    def test_degrees(self):
        g = tiny_graph()
        np.testing.assert_array_equal(
            g.degrees(), np.asarray(g.adj.to_scipy().sum(axis=1)).ravel()
        )

    def test_label_counts_full_length(self):
        g = tiny_graph(num_classes=5)
        assert len(g.label_counts()) == 5
        assert g.label_counts().sum() == g.num_nodes

    def test_copy_independent(self):
        g = tiny_graph()
        g.train_mask = np.zeros(g.num_nodes, dtype=bool)
        c = g.copy()
        c.x.data[0] = 99.0
        c.train_mask[0] = True
        assert g.x.data[0] != 99.0
        assert not g.train_mask[0]

    def test_one_copy_of_each_operator(self):
        # S̃ and the mean aggregator are held once, in x's dtype, beside
        # the adjacency: no float64 copy of either is cached.
        g = tiny_graph().astype(np.float32)
        assert g.s_op.dtype == g.mean_op.dtype == np.float32
        cached = [f.name for f in dataclasses.fields(g) if f.name.startswith("_")]
        assert cached == ["_edge_index", "_s_op", "_mean_op"]

    def test_summary_mentions_counts(self):
        s = tiny_graph().summary()
        assert "6 nodes" in s and "3 classes" in s


class TestLaplacian:
    def test_self_loops_added(self):
        adj = sp.csr_matrix((4, 4))
        out = add_self_loops(adj)
        np.testing.assert_array_equal(out.toarray().diagonal(), np.ones(4))

    def test_normalized_rows_path_graph(self):
        # Path graph 0-1-2: hand-computed S̃.
        adj = sp.csr_matrix(np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float))
        s = normalized_adjacency(adj).toarray()
        d = np.array([2.0, 3.0, 2.0])
        expected = (np.diag(d**-0.5) @ (adj.toarray() + np.eye(3)) @ np.diag(d**-0.5))
        np.testing.assert_allclose(s, expected)

    def test_normalized_symmetric(self):
        g = tiny_graph(10, seed=3)
        s = normalized_adjacency(g.adj).to_scipy()
        assert abs(s - s.T).sum() < 1e-12

    def test_isolated_nodes_handled(self):
        adj = sp.csr_matrix((3, 3))  # all isolated
        s = normalized_adjacency(adj).toarray()
        np.testing.assert_allclose(s, np.eye(3))

    def test_spectral_radius_bound_dominates_true_radius(self):
        g = tiny_graph(20, seed=5)
        true_radius = np.abs(np.linalg.eigvalsh(g.s_op.toarray())).max()
        assert spectral_radius_bound(g.s_op) >= true_radius - 1e-12

    def test_eigenvalues_bounded(self):
        g = tiny_graph(15, seed=7)
        vals = np.linalg.eigvalsh(g.s_op.toarray())
        assert vals.max() <= 1.0 + 1e-9
        assert vals.min() >= -1.0 - 1e-9

    def test_row_normalized_rows_sum_to_one(self):
        g = tiny_graph(12, seed=9)
        r = row_normalized_adjacency(g.adj)
        np.testing.assert_allclose(np.asarray(r.to_scipy().sum(axis=1)).ravel(), np.ones(12))

    def test_constant_vector_fixed_point_regular_graph(self):
        # On a k-regular graph S̃·1 = 1 exactly.
        import networkx as nx

        ring = nx.cycle_graph(8)
        adj = nx.to_scipy_sparse_array(ring, format="csr").astype(float)
        s = normalized_adjacency(sp.csr_matrix(adj))
        ones = np.ones(8)
        np.testing.assert_allclose(s.to_scipy() @ ones, ones, atol=1e-12)

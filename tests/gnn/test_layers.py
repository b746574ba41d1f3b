"""Tests for GCNConv, OrthoConv (incl. Newton–Schulz) and SAGEConv."""

from itertools import product

import numpy as np
import pytest
import scipy.sparse as sp

from repro.autograd import Tensor, gradcheck
from repro.gnn import GCNConv, OrthoConv, SAGEConv, newton_schulz_orthogonalize
from repro.graphs.csr import CSRMatrix
from repro.graphs.laplacian import normalized_adjacency, row_normalized_adjacency

RNG = np.random.default_rng(11)


def ring_s_norm(n=8):
    import networkx as nx

    adj = sp.csr_matrix(nx.to_scipy_sparse_array(nx.cycle_graph(n), format="csr").astype(float))
    return normalized_adjacency(adj), adj


class TestGCNConv:
    def test_output_shape(self):
        s, _ = ring_s_norm(8)
        conv = GCNConv(5, 3, rng=np.random.default_rng(0))
        out = conv(s, Tensor(RNG.standard_normal((8, 5))))
        assert out.shape == (8, 3)

    def test_gradcheck_both_orders(self):
        # out <= in (transform-first) and out > in (propagate-first).
        s, _ = ring_s_norm(6)
        for d_in, d_out in [(5, 3), (3, 5)]:
            conv = GCNConv(d_in, d_out, rng=np.random.default_rng(1))
            x = Tensor(RNG.standard_normal((6, d_in)), requires_grad=True)
            assert gradcheck(lambda t: (conv(s, t) ** 2).sum(), [x])

    def test_orders_agree(self):
        # S̃(ZW) == (S̃Z)W numerically.
        s, _ = ring_s_norm(7)
        z = RNG.standard_normal((7, 4))
        w = RNG.standard_normal((4, 4))
        np.testing.assert_allclose(s @ (z @ w), (s @ z) @ w, atol=1e-12)

    def test_propagation_smooths(self):
        # After convolution with identity weight, connected equal-feature
        # nodes stay equal (permutation equivariance on a ring).
        s, _ = ring_s_norm(6)
        conv = GCNConv(2, 2, bias=False, rng=np.random.default_rng(2))
        conv.weight.data[...] = np.eye(2)
        x = np.ones((6, 2))
        out = conv(s, Tensor(x)).data
        np.testing.assert_allclose(out - out[0], np.zeros_like(out), atol=1e-12)

    def test_weight_grads_flow(self):
        s, _ = ring_s_norm(5)
        conv = GCNConv(3, 2, rng=np.random.default_rng(3))
        (conv(s, Tensor(RNG.standard_normal((5, 3)))) ** 2).sum().backward()
        assert conv.weight.grad is not None and np.abs(conv.weight.grad).sum() > 0
        assert conv.bias.grad is not None

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            GCNConv(0, 2)

    @pytest.mark.parametrize(
        "empty,dims,bias",
        list(product([False, True], [(6, 3), (3, 6)], [True, False])),
    )
    def test_sparse_input_matches_dense(self, empty, dims, bias):
        # A CSRMatrix input takes the two-spmm path; output and parameter
        # gradients must equal the dense-Tensor path on the same X.
        d_in, d_out = dims
        s, _ = ring_s_norm(8)
        rng = np.random.default_rng(5)
        x = rng.standard_normal((8, d_in)) * (rng.random((8, d_in)) < 0.4)
        if empty:
            x[[1, 4], :] = 0.0
            x[:, 0] = 0.0
        grad = rng.standard_normal((8, d_out))
        results = []
        for z in (Tensor(x), CSRMatrix.from_scipy(sp.csr_matrix(x))):
            conv = GCNConv(d_in, d_out, bias=bias, rng=np.random.default_rng(6))
            out = conv(s, z)
            out.backward(grad)
            results.append((out.data, conv.weight.grad, conv.bias.grad if bias else None))
        (dense_out, dense_dw, dense_db), (sparse_out, sparse_dw, sparse_db) = results
        np.testing.assert_allclose(sparse_out, dense_out, rtol=1e-12)
        np.testing.assert_allclose(sparse_dw, dense_dw, rtol=1e-12)
        if bias:
            np.testing.assert_allclose(sparse_db, dense_db, rtol=1e-12)


class TestNewtonSchulz:
    def test_orthogonalizes_random(self):
        w = RNG.standard_normal((10, 10))
        q = newton_schulz_orthogonalize(w, iterations=20)
        np.testing.assert_allclose(q @ q.T, np.eye(10), atol=1e-6)

    def test_fixed_point_on_orthogonal(self):
        from repro.nn import init

        q0 = init.orthogonal(6, 6, RNG)
        q = newton_schulz_orthogonalize(q0, iterations=25)
        np.testing.assert_allclose(q, q0, atol=1e-6)

    def test_preserves_polar_factor_sign(self):
        # For SPD input the polar factor is the identity.
        a = RNG.standard_normal((5, 5))
        spd = a @ a.T + 5 * np.eye(5)
        q = newton_schulz_orthogonalize(spd, iterations=30)
        np.testing.assert_allclose(q, np.eye(5), atol=1e-5)

    def test_quadratic_convergence(self):
        w = RNG.standard_normal((8, 8))
        res = []
        for it in [2, 4, 8]:
            q = newton_schulz_orthogonalize(w, iterations=it)
            res.append(np.linalg.norm(q @ q.T - np.eye(8)))
        assert res[2] < res[1] < res[0]

    def test_rejects_rectangular(self):
        with pytest.raises(ValueError):
            newton_schulz_orthogonalize(np.ones((3, 4)))

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            newton_schulz_orthogonalize(np.zeros((3, 3)))

    def test_rejects_zero_iterations(self):
        with pytest.raises(ValueError):
            newton_schulz_orthogonalize(np.eye(3), iterations=0)


class TestOrthoConv:
    def test_output_shape(self):
        s, _ = ring_s_norm(8)
        layer = OrthoConv(4, rng=np.random.default_rng(0))
        out = layer(s, Tensor(RNG.standard_normal((8, 4))))
        assert out.shape == (8, 4)

    def test_normalized_weight_frobenius(self):
        # ‖W̃‖_F = √d_h by construction.
        layer = OrthoConv(6, rng=np.random.default_rng(1))
        layer.weight.data[...] = RNG.standard_normal((6, 6)) * 3.0
        wt = layer.normalized_weight().data
        assert np.linalg.norm(wt) == pytest.approx(np.sqrt(6), rel=1e-10)

    def test_orthogonal_init_is_fixed_by_normalization(self):
        layer = OrthoConv(5, init="orthogonal", rng=np.random.default_rng(2))
        wt = layer.normalized_weight().data
        np.testing.assert_allclose(wt @ wt.T, np.eye(5), atol=1e-10)

    def test_gradcheck_through_normalization(self):
        s, _ = ring_s_norm(5)
        layer = OrthoConv(3, rng=np.random.default_rng(3))
        x = Tensor(RNG.standard_normal((5, 3)), requires_grad=True)
        assert gradcheck(lambda t: (layer(s, t) ** 2).sum(), [x])
        # And w.r.t. the weight itself (normalization quotient rule).
        x2 = Tensor(RNG.standard_normal((5, 3)))
        layer.zero_grad()
        loss = (layer(s, x2) ** 2).sum()
        loss.backward()
        analytic = layer.weight.grad.copy()
        eps = 1e-6
        num = np.zeros_like(analytic)
        for i in range(3):
            for j in range(3):
                layer.weight.data[i, j] += eps
                up = (layer(s, x2) ** 2).sum().item()
                layer.weight.data[i, j] -= 2 * eps
                dn = (layer(s, x2) ** 2).sum().item()
                layer.weight.data[i, j] += eps
                num[i, j] = (up - dn) / (2 * eps)
        np.testing.assert_allclose(analytic, num, atol=1e-5)

    def test_norm_preservation_when_orthogonal(self):
        # With orthogonal W̃ and no propagation (identity S), row norms hold.
        s = CSRMatrix.from_scipy(sp.identity(6, format="csr"))
        layer = OrthoConv(4, init="orthogonal", rng=np.random.default_rng(4))
        x = RNG.standard_normal((6, 4))
        out = layer(s, Tensor(x)).data
        np.testing.assert_allclose(
            np.linalg.norm(out, axis=1), np.linalg.norm(x, axis=1), rtol=1e-10
        )

    def test_project_orthogonal(self):
        layer = OrthoConv(5, init="xavier_uniform", rng=np.random.default_rng(5))
        before = layer.orthogonality_residual()
        layer.project_orthogonal(iterations=20)
        after = layer.orthogonality_residual()
        assert after < 1e-6 < before

    def test_invalid_features(self):
        with pytest.raises(ValueError):
            OrthoConv(0)


class TestSAGEConv:
    def test_output_shape(self):
        _, adj = ring_s_norm(8)
        m = row_normalized_adjacency(adj)
        conv = SAGEConv(5, 3, rng=np.random.default_rng(0))
        out = conv(m, Tensor(RNG.standard_normal((8, 5))))
        assert out.shape == (8, 3)

    def test_weight_width_doubled(self):
        conv = SAGEConv(5, 3, rng=np.random.default_rng(0))
        assert conv.weight.shape == (10, 3)

    def test_gradcheck(self):
        _, adj = ring_s_norm(6)
        m = row_normalized_adjacency(adj)
        conv = SAGEConv(3, 2, rng=np.random.default_rng(1))
        x = Tensor(RNG.standard_normal((6, 3)), requires_grad=True)
        assert gradcheck(lambda t: (conv(m, t) ** 2).sum(), [x])

    def test_constant_features_fixed(self):
        # Constant features: self == neighbor mean, output constant rows.
        _, adj = ring_s_norm(6)
        m = row_normalized_adjacency(adj)
        conv = SAGEConv(2, 2, rng=np.random.default_rng(2))
        out = conv(m, Tensor(np.ones((6, 2)))).data
        np.testing.assert_allclose(out - out[0], np.zeros_like(out), atol=1e-12)

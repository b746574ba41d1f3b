"""Numerical gradient checks for the GNN layers' composite forwards.

The per-op backwards are gradchecked in ``tests/autograd``; these cases
check the layers' *compositions* — OrthoConv's differentiable Frobenius
normalization, GAT's gather/scatter edge softmax, and the Eq. 6
orthogonality penalty — against central differences end to end.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.autograd import Tensor, gradcheck
from repro.gnn.gat_conv import GATConv
from repro.gnn.ortho import OrthoConv
from repro.graphs.csr import CSRMatrix
from repro.nn import orthogonality_loss

RNG = np.random.default_rng(42)


def small_graph(n=6):
    """A fixed tiny graph: ring + one chord, row-normalized."""
    rows = list(range(n)) + [0]
    cols = [(i + 1) % n for i in range(n)] + [3]
    adj = sp.coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    adj = ((adj + adj.T) > 0).astype(np.float64)
    deg = np.asarray(adj.sum(axis=1)).ravel()
    return sp.diags(1.0 / deg) @ adj


class TestOrthoConvGradcheck:
    def test_wrt_input(self):
        conv = OrthoConv(4, rng=np.random.default_rng(0))
        s = CSRMatrix.from_scipy(small_graph())
        z = Tensor(RNG.standard_normal((6, 4)), requires_grad=True)
        assert gradcheck(lambda t: (conv.forward(s, t) ** 2).sum(), [z])

    def test_wrt_weight(self):
        # Gradients must flow through W̃ = √d·W/‖W‖_F (the quotient), not
        # just the matmul.
        conv = OrthoConv(4, rng=np.random.default_rng(0))
        s = CSRMatrix.from_scipy(small_graph())
        z = Tensor(RNG.standard_normal((6, 4)))
        assert gradcheck(lambda w: (conv.forward(s, z) ** 2).sum(), [conv.weight])

    def test_normalized_weight_scale_invariant(self):
        # The normalization makes W̃ invariant to rescaling W — its
        # gradient must therefore be orthogonal to W itself.
        conv = OrthoConv(4, rng=np.random.default_rng(0))
        before = conv.normalized_weight().data.copy()
        conv.weight.data *= 3.7
        np.testing.assert_allclose(conv.normalized_weight().data, before, rtol=1e-12)


class TestGATGradcheck:
    def make(self, grad_input=False):
        conv = GATConv(3, 4, rng=np.random.default_rng(0))
        adj = small_graph()
        edges = GATConv.edge_index(sp.coo_matrix((adj > 0).astype(np.float64)))
        z = Tensor(RNG.standard_normal((6, 3)), requires_grad=grad_input)
        return conv, edges, z

    def test_wrt_input(self):
        conv, edges, z = self.make(grad_input=True)
        assert gradcheck(lambda t: (conv.forward(edges, t) ** 2).sum(), [z])

    @pytest.mark.parametrize("param", ["weight", "att_src", "att_dst", "bias"])
    def test_wrt_parameters(self, param):
        # The edge softmax subtracts a detached segment max; since softmax
        # is shift-invariant, the analytic gradient must still match the
        # numeric one even though the max itself moves under perturbation.
        conv, edges, z = self.make()
        p = getattr(conv, param)
        assert gradcheck(lambda w: (conv.forward(edges, z) ** 2).sum(), [p])

    def test_forward_finite(self):
        conv, edges, z = self.make()
        assert np.isfinite(conv.forward(edges, z).data).all()


class TestOrthogonalityPenaltyGradcheck:
    def test_single_weight(self):
        # Away from the manifold the penalty ‖WWᵀ−I‖_F is smooth.
        w = Tensor(RNG.standard_normal((4, 4)) * 0.5 + np.eye(4), requires_grad=True)
        assert gradcheck(lambda t: orthogonality_loss([t]), [w])

    def test_multiple_weights_sum(self):
        ws = [
            Tensor(RNG.standard_normal((3, 3)) * 0.5 + np.eye(3), requires_grad=True)
            for _ in range(2)
        ]
        assert gradcheck(lambda a, b: orthogonality_loss([a, b]), ws)

    def test_zero_at_orthogonal(self):
        q, _ = np.linalg.qr(RNG.standard_normal((5, 5)))
        assert orthogonality_loss([Tensor(q)]).item() == pytest.approx(0.0, abs=1e-5)

    def test_matches_residual_diagnostic(self):
        conv = OrthoConv(4, rng=np.random.default_rng(3))
        conv.weight.data += RNG.standard_normal((4, 4)) * 0.1
        penalty = orthogonality_loss([conv.weight]).item()
        assert penalty == pytest.approx(conv.orthogonality_residual(), rel=1e-10)

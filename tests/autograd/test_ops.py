"""Gradient checks for every autograd op (finite differences)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.autograd import (
    Tensor,
    gradcheck,
    matmul,
    spmm,
    relu,
    leaky_relu,
    sigmoid,
    tanh,
    softmax,
    log_softmax,
    dropout,
    concat,
    stack,
    l2_norm,
    frobenius_norm,
)
from repro.autograd.ops_basic import add, sub, mul, div, neg, power, exp, log, sqrt, clip, absolute, maximum
from repro.autograd.ops_matmul import transpose
from repro.autograd.ops_reduce import sum as tsum, mean as tmean, max as tmax
from repro.autograd.ops_shape import reshape, getitem
from repro.graphs.csr import CSRMatrix

RNG = np.random.default_rng(42)


def rand_t(*shape, positive=False, requires_grad=True):
    data = RNG.standard_normal(shape)
    if positive:
        data = np.abs(data) + 0.5
    return Tensor(data, requires_grad=requires_grad)


class TestElementwise:
    def test_add(self):
        a, b = rand_t(3, 4), rand_t(3, 4)
        assert gradcheck(lambda x, y: (add(x, y) ** 2).sum(), [a, b])

    def test_add_broadcast_row(self):
        a, b = rand_t(3, 4), rand_t(4)
        assert gradcheck(lambda x, y: (add(x, y) ** 2).sum(), [a, b])

    def test_add_broadcast_scalar(self):
        a, b = rand_t(3, 4), rand_t()
        assert gradcheck(lambda x, y: (add(x, y) ** 2).sum(), [a, b])

    def test_sub(self):
        a, b = rand_t(3, 4), rand_t(3, 4)
        assert gradcheck(lambda x, y: (sub(x, y) ** 2).sum(), [a, b])

    def test_neg(self):
        assert gradcheck(lambda x: (neg(x) ** 3).sum(), [rand_t(3, 4)])

    def test_neg_dunder_matches_op(self):
        a = rand_t(2, 3, requires_grad=False)
        np.testing.assert_array_equal((-a).data, neg(a).data)

    def test_sub_broadcast_keepdim_mean(self):
        # The moment computation subtracts a (1, d) mean from (n, d) features.
        a, b = rand_t(5, 3), rand_t(1, 3)
        assert gradcheck(lambda x, y: (sub(x, y) ** 4).sum(), [a, b])

    def test_mul(self):
        a, b = rand_t(3, 4), rand_t(3, 4)
        assert gradcheck(lambda x, y: mul(x, y).sum(), [a, b])

    def test_mul_broadcast_col(self):
        a, b = rand_t(3, 4), rand_t(3, 1)
        assert gradcheck(lambda x, y: mul(x, y).sum(), [a, b])

    def test_div(self):
        a, b = rand_t(3, 4), rand_t(3, 4, positive=True)
        assert gradcheck(lambda x, y: div(x, y).sum(), [a, b])

    def test_div_by_scalar_constant(self):
        a = rand_t(3, 4)
        assert gradcheck(lambda x: (x / 2.5).sum(), [a])

    def test_rsub_and_rdiv(self):
        a = rand_t(3, positive=True)
        assert gradcheck(lambda x: (1.0 - x).sum(), [a])
        assert gradcheck(lambda x: (1.0 / x).sum(), [a])

    def test_neg(self):
        a = rand_t(3, 4)
        assert gradcheck(lambda x: (-x).sum(), [a])

    def test_power_square(self):
        a = rand_t(3, 4)
        assert gradcheck(lambda x: (power(x, 2)).sum(), [a])

    @pytest.mark.parametrize("j", [2, 3, 4, 5])
    def test_power_moment_orders(self, j):
        # Exactly the exponents used by the CMD central moments (Alg. 1).
        a = rand_t(4, 3)
        assert gradcheck(lambda x: power(x, j).sum(), [a])

    def test_power_fractional_positive(self):
        a = rand_t(3, 4, positive=True)
        assert gradcheck(lambda x: power(x, 1.5).sum(), [a])

    def test_exp(self):
        a = rand_t(3, 4)
        assert gradcheck(lambda x: exp(x).sum(), [a])

    def test_log(self):
        a = rand_t(3, 4, positive=True)
        assert gradcheck(lambda x: log(x).sum(), [a])

    def test_sqrt(self):
        a = rand_t(3, 4, positive=True)
        assert gradcheck(lambda x: sqrt(x).sum(), [a])

    def test_clip_interior(self):
        a = Tensor(RNG.uniform(-0.4, 0.4, (3, 4)), requires_grad=True)
        assert gradcheck(lambda x: clip(x, -1.0, 1.0).sum(), [a])

    def test_clip_blocks_gradient_outside(self):
        a = Tensor([-2.0, 0.5, 3.0], requires_grad=True)
        clip(a, -1.0, 1.0).sum().backward()
        np.testing.assert_array_equal(a.grad, [0.0, 1.0, 0.0])

    def test_abs(self):
        a = Tensor([-2.0, 0.5, 3.0], requires_grad=True)
        assert gradcheck(lambda x: absolute(x).sum(), [a])

    def test_maximum(self):
        a, b = rand_t(3, 4), rand_t(3, 4)
        assert gradcheck(lambda x, y: maximum(x, y).sum(), [a, b])


class TestMatmul:
    def test_matmul(self):
        a, b = rand_t(4, 3), rand_t(3, 5)
        assert gradcheck(lambda x, y: matmul(x, y).sum(), [a, b])

    def test_matmul_chain(self):
        a, b, c = rand_t(2, 3), rand_t(3, 4), rand_t(4, 2)
        assert gradcheck(lambda x, y, z: (matmul(matmul(x, y), z) ** 2).sum(), [a, b, c])

    def test_matmul_rejects_1d(self):
        with pytest.raises(ValueError):
            matmul(rand_t(3), rand_t(3))

    def test_matmul_operator(self):
        a, b = rand_t(2, 3), rand_t(3, 2)
        np.testing.assert_allclose((a @ b).data, a.data @ b.data)

    def test_transpose(self):
        a = rand_t(3, 5)
        assert gradcheck(lambda x: (transpose(x) @ x).sum(), [a])

    def test_T_property(self):
        a = rand_t(3, 5)
        assert a.T.shape == (5, 3)

    def test_spmm_gradcheck(self):
        s = CSRMatrix.from_scipy(sp.random(6, 6, density=0.4, random_state=7, format="csr"))
        x = rand_t(6, 3)
        assert gradcheck(lambda t: (spmm(s, t) ** 2).sum(), [x])

    def test_spmm_value_matches_dense(self):
        s = sp.random(5, 5, density=0.5, random_state=3, format="csr")
        x = rand_t(5, 4, requires_grad=False)
        out = spmm(CSRMatrix.from_scipy(s), x)
        np.testing.assert_allclose(out.data, s.toarray() @ x.data)

    def test_spmm_rejects_dense_first_arg(self):
        with pytest.raises(TypeError, match="CSRMatrix.from_scipy"):
            spmm(np.eye(3), rand_t(3, 2))

    def test_spmm_rejects_raw_scipy_operand(self):
        with pytest.raises(TypeError, match="CSRMatrix.from_scipy"):
            spmm(sp.identity(3, format="csr"), rand_t(3, 2))

    def test_spmm_shape_mismatch_is_clear(self):
        s = CSRMatrix.from_scipy(sp.identity(3, format="csr"))
        with pytest.raises(ValueError, match="shape mismatch"):
            spmm(s, rand_t(4, 2))

    def test_spmm_rejects_non_2d_dense(self):
        s = CSRMatrix.from_scipy(sp.identity(3, format="csr"))
        with pytest.raises(ValueError, match="2-D"):
            spmm(s, Tensor(np.ones(3), requires_grad=True))

    def test_spmm_keeps_float32(self):
        s = CSRMatrix.from_scipy(sp.identity(3, format="csr", dtype=np.float32))
        x = Tensor(np.ones((3, 2), dtype=np.float32), requires_grad=True)
        out = spmm(s, x)
        out.sum().backward()
        assert out.data.dtype == x.grad.dtype == np.float32

    def test_spmm_csr_container_gradcheck(self):
        s = CSRMatrix.from_scipy(
            sp.random(6, 6, density=0.4, random_state=7, format="csr")
        )
        x = rand_t(6, 3)
        assert gradcheck(lambda t: (spmm(s, t) ** 2).sum(), [x])

    def test_spmm_csr_container_matches_scipy_path_bitwise(self):
        s_sp = sp.random(8, 8, density=0.3, random_state=5, format="csr")
        s = CSRMatrix.from_scipy(s_sp)
        x = rand_t(8, 4)
        g = np.random.default_rng(9).standard_normal((8, 4))

        out = spmm(s, x)
        out.backward(g)
        # Bitwise against scipy's own products, close to the dense ones.
        assert np.array_equal(out.data, s_sp @ x.data)
        assert np.array_equal(x.grad, s_sp.T.tocsr() @ g)
        np.testing.assert_allclose(out.data, s_sp.toarray() @ x.data)
        np.testing.assert_allclose(x.grad, s_sp.T.toarray() @ g)

    def test_spmm_csr_container_rmatmul(self):
        s = CSRMatrix.from_scipy(sp.identity(4, format="csr"))
        x = rand_t(4, 2, requires_grad=False)
        np.testing.assert_allclose((s @ x).data, x.data)


class TestReductions:
    def test_sum_all(self):
        assert gradcheck(lambda x: tsum(x), [rand_t(3, 4)])

    def test_sum_axis0(self):
        assert gradcheck(lambda x: (tsum(x, axis=0) ** 2).sum(), [rand_t(3, 4)])

    def test_sum_axis1_keepdims(self):
        assert gradcheck(lambda x: (tsum(x, axis=1, keepdims=True) ** 2).sum(), [rand_t(3, 4)])

    def test_mean_all(self):
        assert gradcheck(lambda x: tmean(x), [rand_t(3, 4)])

    def test_mean_axis0(self):
        # Per-feature means over nodes: the E(Z) of Algorithm 1.
        assert gradcheck(lambda x: (tmean(x, axis=0) ** 2).sum(), [rand_t(5, 3)])

    def test_mean_negative_axis(self):
        assert gradcheck(lambda x: (tmean(x, axis=-1) ** 2).sum(), [rand_t(3, 4)])

    def test_max_all(self):
        a = Tensor(RNG.permutation(12).astype(float).reshape(3, 4), requires_grad=True)
        assert gradcheck(lambda x: tmax(x), [a])

    def test_max_axis(self):
        a = Tensor(RNG.permutation(12).astype(float).reshape(3, 4), requires_grad=True)
        assert gradcheck(lambda x: tmax(x, axis=1).sum(), [a])

    def test_l2_norm(self):
        assert gradcheck(lambda x: l2_norm(x), [rand_t(4, 3)])

    def test_l2_norm_at_zero_no_nan(self):
        z = Tensor(np.zeros((3, 3)), requires_grad=True)
        l2_norm(z).backward()
        assert np.all(np.isfinite(z.grad))

    def test_frobenius_is_l2(self):
        x = rand_t(4, 4, requires_grad=False)
        assert frobenius_norm(x).item() == pytest.approx(np.linalg.norm(x.data), rel=1e-9)


class TestNNOps:
    def test_relu(self):
        assert gradcheck(lambda x: (relu(x) ** 2).sum(), [rand_t(4, 5)])

    def test_leaky_relu(self):
        # Shift away from 0 so finite differences never straddle the kink.
        assert gradcheck(
            lambda x: (leaky_relu(x + 5.0) ** 2).sum() + (leaky_relu(x - 5.0) ** 2).sum(),
            [rand_t(4, 5)],
        )

    def test_leaky_relu_negative_slope(self):
        a = Tensor([-2.0, 3.0], requires_grad=True)
        leaky_relu(a, negative_slope=0.1).sum().backward()
        np.testing.assert_allclose(a.grad, [0.1, 1.0])

    def test_relu_kills_negative_grad(self):
        a = Tensor([-1.0, 2.0], requires_grad=True)
        relu(a).sum().backward()
        np.testing.assert_array_equal(a.grad, [0.0, 1.0])

    def test_sigmoid(self):
        assert gradcheck(lambda x: sigmoid(x).sum(), [rand_t(4, 5)])

    def test_sigmoid_range(self):
        out = sigmoid(rand_t(10, 10, requires_grad=False)).data
        assert np.all((out > 0) & (out < 1))

    def test_tanh(self):
        assert gradcheck(lambda x: tanh(x).sum(), [rand_t(4, 5)])

    def test_softmax_rows_sum_to_one(self):
        out = softmax(rand_t(6, 4, requires_grad=False)).data
        np.testing.assert_allclose(out.sum(axis=1), np.ones(6))

    def test_softmax_grad(self):
        w = Tensor(RNG.standard_normal((4, 5)))
        assert gradcheck(lambda x: (softmax(x) * w).sum(), [rand_t(4, 5)])

    def test_log_softmax_grad(self):
        w = Tensor(RNG.standard_normal((4, 5)))
        assert gradcheck(lambda x: (log_softmax(x) * w).sum(), [rand_t(4, 5)])

    def test_log_softmax_stable_large_logits(self):
        x = Tensor([[1000.0, 0.0], [0.0, 1000.0]])
        out = log_softmax(x).data
        assert np.all(np.isfinite(out))

    def test_log_softmax_equals_log_of_softmax(self):
        x = rand_t(5, 3, requires_grad=False)
        np.testing.assert_allclose(log_softmax(x).data, np.log(softmax(x).data), atol=1e-12)

    def test_dropout_eval_is_identity(self):
        x = rand_t(10, 10)
        assert dropout(x, 0.5, training=False) is x

    def test_dropout_zero_p_is_identity(self):
        x = rand_t(10, 10)
        assert dropout(x, 0.0) is x

    def test_dropout_preserves_expectation(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones((200, 200)))
        out = dropout(Tensor(x.data, requires_grad=True), 0.3, rng=rng)
        assert out.data.mean() == pytest.approx(1.0, abs=0.02)

    def test_dropout_invalid_p(self):
        with pytest.raises(ValueError):
            dropout(rand_t(3, 3), 1.0)

    def test_dropout_grad_matches_mask(self):
        rng = np.random.default_rng(1)
        x = Tensor(np.ones((4, 4)), requires_grad=True)
        out = dropout(x, 0.5, rng=rng)
        out.sum().backward()
        np.testing.assert_allclose(x.grad, out.data)  # mask * 1/(1-p)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("p", [0.1, 0.5, 0.6])
    def test_dropout_mask_is_the_two_pass_mask_bytewise(self, p, dtype):
        # The mask is formed in one pass; it must stay the bytes of
        # ((u >= p) / (1 - p)).astype(dtype) on the same float64 draws.
        ones = Tensor(np.ones((437, 64), dtype), requires_grad=True)
        got = dropout(ones, p, rng=np.random.default_rng(11)).data
        u = np.random.default_rng(11).random((437, 64))
        want = ((u >= p) / (1.0 - p)).astype(dtype)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestShapeOps:
    def test_reshape(self):
        assert gradcheck(lambda x: (reshape(x, 2, 6) ** 2).sum(), [rand_t(3, 4)])

    def test_reshape_tuple_arg(self):
        x = rand_t(3, 4, requires_grad=False)
        assert reshape(x, (12,)).shape == (12,)

    def test_getitem_int_array(self):
        idx = np.array([0, 2, 4])
        assert gradcheck(lambda x: (x[idx] ** 2).sum(), [rand_t(5, 3)])

    def test_getitem_repeated_indices_accumulate(self):
        x = Tensor(np.ones((3, 2)), requires_grad=True)
        idx = np.array([1, 1, 1])
        x[idx].sum().backward()
        np.testing.assert_array_equal(x.grad[1], [3.0, 3.0])

    def test_getitem_bool_mask(self):
        x = rand_t(5, 3)
        mask = np.array([True, False, True, False, True])
        assert gradcheck(lambda t: (t[mask] ** 2).sum(), [x])

    def test_getitem_slice(self):
        assert gradcheck(lambda x: (x[slice(1, 3)] ** 2).sum(), [rand_t(5, 3)])

    def test_concat_axis0(self):
        a, b = rand_t(2, 3), rand_t(4, 3)
        assert gradcheck(lambda x, y: (concat([x, y], axis=0) ** 2).sum(), [a, b])

    def test_concat_axis1(self):
        a, b = rand_t(3, 2), rand_t(3, 4)
        assert gradcheck(lambda x, y: (concat([x, y], axis=1) ** 2).sum(), [a, b])

    def test_stack(self):
        a, b = rand_t(3, 2), rand_t(3, 2)
        assert gradcheck(lambda x, y: (stack([x, y]) ** 2).sum(), [a, b])

    def test_stack_value(self):
        a, b = rand_t(2, 2, requires_grad=False), rand_t(2, 2, requires_grad=False)
        assert stack([a, b]).shape == (2, 2, 2)


class TestGradcheckUtility:
    def test_rejects_nonscalar(self):
        with pytest.raises(ValueError):
            gradcheck(lambda x: x * 2, [rand_t(3)])

    def test_detects_wrong_gradient(self):
        # An intentionally wrong op: forward x^2 but gradient of x^3.
        from repro.autograd.tensor import Tensor as T

        def bad_square(a):
            out_data = a.data**2

            def backward(grad):
                a._accumulate(grad * 3 * a.data**2)

            # Deliberately unpriced op: this test exists to prove gradcheck
            # rejects a wrong gradient, not to extend the cost model.
            return T._make(out_data, (a,), backward, "bad")

        with pytest.raises(AssertionError):
            gradcheck(lambda x: bad_square(x).sum(), [rand_t(3)])

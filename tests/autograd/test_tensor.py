"""Tests for the Tensor type and backward-pass machinery."""

import numpy as np
import pytest

from repro.autograd import Tensor, as_tensor, no_grad, is_grad_enabled, zeros, ones, randn


class TestConstruction:
    def test_wraps_list(self):
        t = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert t.shape == (2, 2)
        assert t.data.dtype == np.float64

    def test_wraps_int_array_as_float(self):
        t = Tensor(np.arange(4))
        assert t.data.dtype == np.float64

    def test_scalar(self):
        t = Tensor(3.0)
        assert t.shape == ()
        assert t.item() == 3.0

    def test_item_rejects_nonscalar(self):
        with pytest.raises(ValueError):
            Tensor([1.0, 2.0]).item()

    def test_requires_grad_default_false(self):
        assert not Tensor([1.0]).requires_grad

    def test_as_tensor_passthrough(self):
        t = Tensor([1.0])
        assert as_tensor(t) is t

    def test_as_tensor_coerces(self):
        t = as_tensor([1.0, 2.0])
        assert isinstance(t, Tensor)

    def test_zeros_ones_randn(self):
        assert np.all(zeros(2, 3).data == 0)
        assert np.all(ones(2, 3).data == 1)
        r = randn(2, 3, rng=np.random.default_rng(0))
        r2 = randn(2, 3, rng=np.random.default_rng(0))
        np.testing.assert_array_equal(r.data, r2.data)

    def test_len(self):
        assert len(Tensor([[1.0], [2.0], [3.0]])) == 3


class TestDtypePolicy:
    """A floating array keeps its dtype through ops and gradients."""

    def f32(self, *shape, seed=0):
        data = np.random.default_rng(seed).standard_normal(shape).astype(np.float32)
        return Tensor(data, requires_grad=True)

    def test_float32_array_is_kept(self):
        assert Tensor(np.ones(3, dtype=np.float32)).data.dtype == np.float32
        assert Tensor(np.float32(2.0)).data.dtype == np.float32

    def test_python_numbers_keep_the_tensor_operand_dtype(self):
        from repro.autograd import frobenius_norm

        x = self.f32(4, 3)
        for out in (2.0 * x, x + 1, 1.0 - x, x / 3.0, 2 / (x * x + 1.0), x.mean(axis=0),
                    frobenius_norm(x), x * (2.0 / frobenius_norm(x))):
            assert out.data.dtype == np.float32, out._op

    def test_gradients_take_the_tensor_dtype(self):
        from repro.autograd import dropout, relu

        x = self.f32(5, 4)
        w = Tensor(np.ones((4, 2)), requires_grad=True)  # float64
        loss = (relu(dropout(x, 0.5, rng=np.random.default_rng(0))) * 3.0).sum()
        loss.backward()
        assert loss.data.dtype == x.grad.dtype == np.float32
        (Tensor(x.data.astype(np.float64)) @ w).sum().backward()
        assert w.grad.dtype == np.float64

    def test_dropout_mask_is_the_float64_draw_cast(self):
        from repro.autograd import dropout

        x = self.f32(6, 5)
        out32 = dropout(x, 0.3, rng=np.random.default_rng(3))
        out64 = dropout(Tensor(x.data.astype(np.float64), requires_grad=True), 0.3,
                        rng=np.random.default_rng(3))
        np.testing.assert_array_equal(out32.data == 0, out64.data == 0)
        assert out32.data.dtype == np.float32


class TestBackwardMechanics:
    def test_scalar_backward_default_grad(self):
        x = Tensor(2.0, requires_grad=True)
        y = x * x
        y.backward()
        assert x.grad == pytest.approx(4.0)

    def test_nonscalar_backward_requires_grad_arg(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError):
            (x * 2).backward()

    def test_explicit_grad_shape_mismatch(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError):
            (x * 2).backward(np.ones((3,)))

    def test_grad_accumulates_across_backwards(self):
        x = Tensor(3.0, requires_grad=True)
        (x * 2).backward()
        (x * 2).backward()
        assert x.grad == pytest.approx(4.0)

    def test_zero_grad(self):
        x = Tensor(3.0, requires_grad=True)
        (x * 2).backward()
        x.zero_grad()
        assert x.grad is None

    def test_diamond_graph_accumulates_once_per_path(self):
        # y = x*x + x*x  -> dy/dx = 4x
        x = Tensor(3.0, requires_grad=True)
        a = x * x
        b = x * x
        (a + b).backward()
        assert x.grad == pytest.approx(12.0)

    def test_shared_subexpression(self):
        # z = (x+1); loss = z*z -> dL/dx = 2(x+1)
        x = Tensor(2.0, requires_grad=True)
        z = x + 1.0
        (z * z).backward()
        assert x.grad == pytest.approx(6.0)

    def test_deep_chain_no_recursion_error(self):
        # 5000-op chain would overflow a recursive topo sort.
        x = Tensor(1.0, requires_grad=True)
        y = x
        for _ in range(5000):
            y = y + 0.0
        y.backward()
        assert x.grad == pytest.approx(1.0)

    def test_no_grad_blocks_recording(self):
        x = Tensor(2.0, requires_grad=True)
        with no_grad():
            y = x * x
        assert not y.requires_grad
        assert y._backward is None

    def test_no_grad_restores_state(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_no_grad_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with no_grad():
                raise RuntimeError("boom")
        assert is_grad_enabled()

    def test_detach_cuts_graph(self):
        x = Tensor(2.0, requires_grad=True)
        y = (x * x).detach()
        z = y * 3
        assert not z.requires_grad

    def test_detach_shares_data(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        assert x.detach().data is x.data

    def test_copy_is_deep(self):
        x = Tensor([1.0, 2.0])
        c = x.copy()
        c.data[0] = 99.0
        assert x.data[0] == 1.0

    def test_grad_of_leaf_only_when_required(self):
        x = Tensor(2.0, requires_grad=True)
        c = Tensor(3.0)  # constant
        (x * c).backward()
        assert c.grad is None
        assert x.grad == pytest.approx(3.0)

    def test_tensor_hash_is_identity(self):
        x = Tensor([1.0])
        y = Tensor([1.0])
        assert x == x
        assert x != y
        assert len({x, y}) == 2

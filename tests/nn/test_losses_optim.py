"""Tests for losses, metrics, initializers and the Adam optimizer."""

import numpy as np
import pytest

from repro.autograd import Tensor, gradcheck
from repro.nn import (
    Adam,
    Linear,
    accuracy,
    cross_entropy,
    init,
    mse_loss,
    nll_loss,
    orthogonality_loss,
)
from repro.nn.losses import macro_f1

RNG = np.random.default_rng(7)


class TestCrossEntropy:
    def test_matches_manual(self):
        logits = Tensor([[2.0, 0.0, 0.0], [0.0, 3.0, 0.0]])
        labels = np.array([0, 1])
        expected = -np.mean(
            [
                2.0 - np.log(np.exp(2) + 2),
                3.0 - np.log(np.exp(3) + 2),
            ]
        )
        assert cross_entropy(logits, labels).item() == pytest.approx(expected, rel=1e-9)

    def test_uniform_logits_give_log_c(self):
        logits = Tensor(np.zeros((4, 5)))
        labels = np.array([0, 1, 2, 3])
        assert cross_entropy(logits, labels).item() == pytest.approx(np.log(5))

    def test_gradcheck(self):
        logits = Tensor(RNG.standard_normal((5, 4)), requires_grad=True)
        labels = RNG.integers(0, 4, 5)
        assert gradcheck(lambda z: cross_entropy(z, labels), [logits])

    def test_bool_mask(self):
        logits = Tensor(RNG.standard_normal((6, 3)), requires_grad=True)
        labels = RNG.integers(0, 3, 6)
        mask = np.array([True, False, True, False, False, True])
        assert gradcheck(lambda z: cross_entropy(z, labels, mask), [logits])

    def test_int_mask(self):
        logits = Tensor(RNG.standard_normal((6, 3)))
        labels = RNG.integers(0, 3, 6)
        full = cross_entropy(logits, labels, np.arange(6)).item()
        assert full == pytest.approx(cross_entropy(logits, labels).item())

    def test_mask_changes_value(self):
        logits = Tensor(RNG.standard_normal((6, 3)))
        labels = RNG.integers(0, 3, 6)
        a = cross_entropy(logits, labels, np.array([0, 1])).item()
        b = cross_entropy(logits, labels, np.array([4, 5])).item()
        assert a != pytest.approx(b)

    def test_empty_mask_rejected(self):
        logits = Tensor(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            cross_entropy(logits, np.zeros(3, dtype=int), np.zeros(3, dtype=bool))

    def test_nll_consistency(self):
        from repro.autograd import log_softmax

        logits = Tensor(RNG.standard_normal((5, 4)))
        labels = RNG.integers(0, 4, 5)
        ce = cross_entropy(logits, labels).item()
        nll = nll_loss(log_softmax(logits), labels).item()
        assert ce == pytest.approx(nll, rel=1e-10)


class TestOrthoLoss:
    def test_zero_for_orthogonal(self):
        q = init.orthogonal(6, 6, RNG)
        assert orthogonality_loss([Tensor(q)]).item() == pytest.approx(0.0, abs=1e-5)

    def test_positive_for_nonorthogonal(self):
        w = Tensor(np.ones((4, 4)))
        assert orthogonality_loss([w]).item() > 1.0

    def test_sums_over_layers(self):
        w = Tensor(2 * np.eye(3))
        single = orthogonality_loss([w]).item()
        double = orthogonality_loss([w, w]).item()
        assert double == pytest.approx(2 * single)

    def test_gradcheck(self):
        w = Tensor(RNG.standard_normal((4, 4)), requires_grad=True)
        assert gradcheck(lambda t: orthogonality_loss([t]), [w])

    def test_rejects_rectangular(self):
        with pytest.raises(ValueError):
            orthogonality_loss([Tensor(np.ones((3, 4)))])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            orthogonality_loss([])

    def test_gradient_descent_orthogonalizes(self):
        # Minimizing Eq. 6 should drive W toward the orthogonal manifold.
        from repro.nn.module import Parameter

        w = Parameter(np.eye(5) + 0.3 * RNG.standard_normal((5, 5)))
        start = orthogonality_loss([w]).item()
        opt = Adam([w], lr=0.01)
        for _ in range(500):
            opt.zero_grad()
            orthogonality_loss([w]).backward()
            opt.step()
        end = orthogonality_loss([w]).item()
        assert end < 0.1 * start


class TestMetrics:
    def test_accuracy_perfect(self):
        logits = np.eye(4) * 5
        assert accuracy(logits, np.arange(4)) == 1.0

    def test_accuracy_with_mask(self):
        logits = np.array([[5.0, 0], [0, 5.0], [5.0, 0]])
        labels = np.array([0, 0, 0])
        assert accuracy(logits, labels, np.array([True, True, False])) == 0.5

    def test_accuracy_empty_mask_nan(self):
        assert np.isnan(accuracy(np.zeros((2, 2)), np.zeros(2, dtype=int), np.zeros(2, dtype=bool)))

    def test_accuracy_accepts_tensor(self):
        logits = Tensor(np.eye(3))
        assert accuracy(logits, np.arange(3)) == 1.0

    def test_macro_f1_perfect(self):
        logits = np.eye(3) * 2
        assert macro_f1(logits, np.arange(3)) == 1.0

    def test_macro_f1_weights_classes_equally(self):
        # 9 correct class-0, 1 wrong class-1: accuracy .9, macro-F1 lower.
        logits = np.zeros((10, 2))
        logits[:, 0] = 1.0
        labels = np.array([0] * 9 + [1])
        assert macro_f1(logits, labels) < accuracy(logits, labels)

    def test_mse(self):
        a = Tensor([[1.0, 2.0]])
        b = Tensor([[3.0, 2.0]])
        assert mse_loss(a, b).item() == pytest.approx(2.0)


class TestInitializers:
    @pytest.mark.parametrize("name", ["xavier_uniform", "xavier_normal", "he_normal", "he_uniform"])
    def test_shapes_and_scale(self, name):
        w = init.get(name)(100, 50, np.random.default_rng(0))
        assert w.shape == (100, 50)
        assert 0 < np.abs(w).mean() < 1

    def test_xavier_normal_variance(self):
        w = init.xavier_normal(400, 400, np.random.default_rng(0))
        assert w.std() == pytest.approx(np.sqrt(2 / 800), rel=0.1)

    def test_he_variance(self):
        w = init.he_normal(500, 100, np.random.default_rng(0))
        assert w.std() == pytest.approx(np.sqrt(2 / 500), rel=0.1)

    def test_orthogonal_square(self):
        q = init.orthogonal(8, 8, np.random.default_rng(0))
        np.testing.assert_allclose(q @ q.T, np.eye(8), atol=1e-10)

    def test_orthogonal_rectangular_semiorthogonal(self):
        q = init.orthogonal(4, 8, np.random.default_rng(0))
        np.testing.assert_allclose(q @ q.T, np.eye(4), atol=1e-10)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            init.get("nope")


def quadratic_params(n=4, seed=0):
    from repro.nn.module import Parameter

    rng = np.random.default_rng(seed)
    return Parameter(rng.standard_normal(n) + 3.0)


class TestAdam:
    def test_converges_on_quadratic(self):
        p = quadratic_params(seed=3)
        opt = Adam([p], lr=0.1)
        for _ in range(300):
            opt.zero_grad()
            (p * p).sum().backward()
            opt.step()
        assert np.abs(p.data).max() < 1e-2

    def test_trains_linear_regression(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((64, 3)))
        true_w = rng.standard_normal((3, 1))
        y = Tensor(x.data @ true_w)
        lin = Linear(3, 1, rng=rng)
        opt = Adam(lin.parameters(), lr=0.05)
        for _ in range(400):
            opt.zero_grad()
            mse_loss(lin(x), y).backward()
            opt.step()
        np.testing.assert_allclose(lin.weight.data, true_w, atol=0.05)

    def test_invalid_betas(self):
        with pytest.raises(ValueError):
            Adam([quadratic_params()], betas=(1.0, 0.9))

    def test_invalid_lr(self):
        with pytest.raises(ValueError):
            Adam([quadratic_params()], lr=0.0)

    def test_empty_params(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)

    @staticmethod
    def _textbook_step(params, ms, vs, t, lr, b1, b2, eps, wd):
        bc1, bc2 = 1.0 - b1**t, 1.0 - b2**t
        for p, m, v in zip(params, ms, vs):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if wd:
                g = g + wd * p.data
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * (g * g)
            p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)

    @pytest.mark.parametrize("wd", [0.0, 1e-4])
    def test_matches_textbook_expression_bitwise(self, wd):
        from repro.nn.module import Parameter

        rng = np.random.default_rng(11)
        shapes = [(7, 5), (5,), (3, 4)]
        ours = [Parameter(rng.standard_normal(s)) for s in shapes]
        ref = [Parameter(p.data.copy()) for p in ours]
        opt = Adam(ours, lr=0.01, weight_decay=wd)
        ms = [np.zeros_like(p.data) for p in ref]
        vs = [np.zeros_like(p.data) for p in ref]
        for t in range(1, 6):
            for i, (a, b) in enumerate(zip(ours, ref)):
                # The last parameter never gets a gradient.
                g = rng.standard_normal(a.data.shape) if i < 2 else None
                a.grad, b.grad = g, None if g is None else g.copy()
            opt.step()
            self._textbook_step(ref, ms, vs, t, 0.01, 0.9, 0.999, 1e-8, wd)
            for a, b in zip(ours, ref):
                assert np.array_equal(a.data, b.data)
        for m, m_ref in zip(opt._m, ms):
            assert np.array_equal(m, m_ref)

    @staticmethod
    def _unblocked_step(params, ms, vs, t, lr, b1, b2, eps, wd):
        """The update's ufunc sequence over each whole parameter at once."""
        bc1, bc2 = 1.0 - b1**t, 1.0 - b2**t
        for p, m, v in zip(params, ms, vs):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if wd:
                g = np.add(g, np.multiply(p.data, wd))
            m *= b1
            m += np.multiply(g, 1 - b1)
            v *= b2
            gg = np.multiply(g, g)
            gg *= 1 - b2
            v += gg
            denom = np.sqrt(np.divide(v, bc2))
            denom += eps
            upd = np.divide(m, bc1)
            upd *= lr
            upd /= denom
            p.data -= upd

    @pytest.mark.parametrize("wd", [0.0, 1e-4])
    def test_blocked_step_matches_unblocked_bitwise(self, wd):
        from repro.nn.module import Parameter
        from repro.nn.optim import BLOCK_ELEMENTS

        # The Coauthor-CS input weight (several blocks, the last one
        # ragged), a square hidden weight, a bias, and a parameter far
        # smaller than one block; the bias never gets a gradient.
        shapes = [(6805, 64), (64, 64), (64,), (7, 5)]
        rows = BLOCK_ELEMENTS // 64
        assert 6805 > rows and 6805 % rows
        rng = np.random.default_rng(21)
        ours = [Parameter(rng.standard_normal(s)) for s in shapes]
        ref = [Parameter(p.data.copy()) for p in ours]
        ms = [np.zeros_like(p.data) for p in ref]
        vs = [np.zeros_like(p.data) for p in ref]
        opt = Adam(ours, lr=0.01, weight_decay=wd)

        def step_both(t):
            for i, (a, b) in enumerate(zip(ours, ref)):
                g = None if i == 2 else rng.standard_normal(a.data.shape)
                a.grad, b.grad = g, None if g is None else g.copy()
            opt.step()
            self._unblocked_step(ref, ms, vs, t, 0.01, 0.9, 0.999, 1e-8, wd)
            for a, b in zip(ours, ref):
                assert np.array_equal(a.data, b.data)

        for t in range(1, 6):
            step_both(t)
        for m, m_ref, v, v_ref in zip(opt._m, ms, opt._v, vs):
            assert np.array_equal(m, m_ref) and np.array_equal(v, v_ref)
        # A fresh optimizer restored from the state dict continues the
        # same sequence.  The dict holds the live moment buffers, so a
        # checkpoint write copies no weight-sized array.
        opt_state = opt.state_dict()
        assert all(a is b for a, b in zip(opt_state["m"] + opt_state["v"], opt._m + opt._v))
        opt = Adam(ours, lr=0.01, weight_decay=wd)
        opt.load_state_dict(opt_state)
        for t in range(6, 8):
            step_both(t)

    def test_concurrent_steps_match_serial(self):
        # Scratch is per thread: optimizers stepping at once on more
        # threads than cores, with frequent switches, must not share it.
        import sys
        import threading

        from repro.nn.module import Parameter

        def run(seed):
            rng = np.random.default_rng(seed)
            p = Parameter(rng.standard_normal((64, 32)))
            opt = Adam([p], lr=0.01, weight_decay=1e-4)
            for _ in range(40):
                p.grad = rng.standard_normal((64, 32))
                opt.step()
            return p.data

        serial = [run(s) for s in range(8)]
        results = [None] * 8

        def worker(i):
            results[i] = run(i)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        for got, want in zip(results, serial):
            assert np.array_equal(got, want)

    def test_step_allocates_less_than_the_parameter(self):
        import tracemalloc

        from repro.nn.module import Parameter

        rng = np.random.default_rng(12)
        p = Parameter(rng.standard_normal((2000, 64)))
        p.grad = rng.standard_normal((2000, 64))
        opt = Adam([p], lr=0.01, weight_decay=1e-4)
        opt.step()  # warm-up: this thread's scratch pair for the shape
        tracemalloc.start()
        try:
            opt.step()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < p.data.nbytes

    def test_step_without_grad_is_safe(self):
        p = quadratic_params(seed=5)
        before = p.data.copy()
        Adam([p], lr=0.1).step()
        np.testing.assert_array_equal(p.data, before)

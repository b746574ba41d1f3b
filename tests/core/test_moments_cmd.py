"""Tests for moment computation and the CMD distance."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.autograd import Tensor, gradcheck, l2_norm, matmul, relu
from repro.core.cmd import L2_EPS, cmd_distance, cmd_distance_arrays, layerwise_cmd
from repro.core.moments import _check_orders, _moment_ladder, central_moments_np, layer_means_np

RNG = np.random.default_rng(19)


# ----------------------------------------------------------------------
# The reference: Eq. 11 as the composite op chain the loss used before it
# became one fused op (mean, sub, the central-moments op, getitem, sub,
# l2_norm, mul, add).  The fused op must match it bit for bit.
# ----------------------------------------------------------------------
def ref_central_moments(centered, orders):
    """The differentiable central-moments op of the composite chain."""
    orders = _check_orders(orders)
    c = centered.data
    out_data, powers = _moment_ladder(c, orders)
    n = c.shape[0]

    def backward(grad):
        if not centered.requires_grad:
            return
        dc = np.zeros_like(c)
        term = np.empty_like(c)
        for k, j in enumerate(orders):
            scale = (grad[k] / n) * j
            if j == 1:
                dc += scale
            else:
                np.multiply(scale, powers[j - 2], out=term)
                dc += term
        centered._accumulate(dc)

    # The retired op, kept as a test-only reference: no cost collector
    # ever runs it, so it has no signature.
    return Tensor._make(out_data, (centered,), backward, "central_moments")


def ref_cmd_distance(z, target_mean, target_moments, a=0.0, b=1.0, orders=(2, 3, 4, 5)):
    span = float(b - a)
    local_mean = z.mean(axis=0)
    dist = l2_norm(local_mean - Tensor(np.asarray(target_mean))) * (1.0 / span)
    moments = ref_central_moments(z - local_mean, orders)
    for k, (j, s_j) in enumerate(zip(orders, target_moments)):
        term = l2_norm(moments[k] - Tensor(np.asarray(s_j))) * (1.0 / span ** int(j))
        dist = dist + term
    return dist


def ref_layerwise_cmd(hidden, target_means, target_moments, a=0.0, b=1.0, orders=(2, 3, 4, 5)):
    total = None
    for z, mean, moms in zip(hidden, target_means, target_moments):
        term = ref_cmd_distance(z, mean, moms, a=a, b=b, orders=orders)
        total = term if total is None else total + term
    return total


def numpy_cmd(z, target_mean, target_moments, orders, span=1.0):
    """Eq. 11 with ``l2_norm``'s ε-norms, in NumPy from ``central_moments_np``."""
    mean = z.mean(axis=0)
    diffs = [mean - target_mean] + [
        c - s for c, s in zip(central_moments_np(z, mean, orders), target_moments)
    ]
    weights = [1.0 / span] + [1.0 / span ** int(j) for j in orders]
    dist = None
    for u, w in zip(diffs, weights):
        term = np.sqrt(float((u * u).sum()) + L2_EPS) * w
        dist = term if dist is None else dist + term
    return dist


def bits(arr):
    """The exact bytes of an array (``-0.0`` and ``+0.0`` differ)."""
    return np.ascontiguousarray(arr).tobytes()


class TestMomentsNumpy:
    def test_layer_means(self):
        z = RNG.standard_normal((10, 4))
        (m,) = layer_means_np([z])
        np.testing.assert_allclose(m, z.mean(axis=0))

    def test_layer_means_rejects_1d(self):
        with pytest.raises(ValueError):
            layer_means_np([np.zeros(3)])

    def test_central_moment_order2_is_variance(self):
        z = RNG.standard_normal((500, 3))
        (m2,) = central_moments_np(z, z.mean(axis=0), [2])
        np.testing.assert_allclose(m2, z.var(axis=0), rtol=1e-10)

    def test_central_moment_order3_zero_for_symmetric(self):
        z = np.concatenate([RNG.standard_normal((4000, 2))] * 1)
        z = np.concatenate([z, -z])  # exactly symmetric
        (m3,) = central_moments_np(z, z.mean(axis=0), [3])
        np.testing.assert_allclose(m3, 0.0, atol=1e-12)

    def test_moments_about_other_mean(self):
        # E((Z - c)^1) = mean(Z) - c  for any constant c.
        z = RNG.standard_normal((50, 2))
        c = np.array([1.0, -1.0])
        (m1,) = central_moments_np(z, c, [1])
        np.testing.assert_allclose(m1, z.mean(axis=0) - c)

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            central_moments_np(np.zeros((3, 2)), np.zeros(2), [0])

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            central_moments_np(np.zeros((3, 2)), np.zeros(3), [2])


class TestMomentsTensor:
    """The fused op's central moments, observed through Eq. 11."""

    def test_matches_numpy(self):
        z = RNG.standard_normal((20, 3))
        mu = RNG.standard_normal(3)
        targets = [RNG.standard_normal(3) for _ in range(2)]
        got = cmd_distance(Tensor(z), mu, targets, orders=[2, 3]).item()
        assert got == numpy_cmd(z, mu, targets, [2, 3])

    @pytest.mark.parametrize("j", [2, 3, 4, 5])
    def test_gradcheck_each_order(self, j):
        z = Tensor(RNG.standard_normal((6, 3)), requires_grad=True)
        mu, (target,) = RNG.standard_normal(3), [RNG.standard_normal(3)]
        assert gradcheck(lambda t: cmd_distance(t, mu, [target], orders=(j,)), [z])

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            cmd_distance(Tensor(np.zeros(3)), np.zeros(3), [np.zeros(3)], orders=(2,))


class TestCMDDistance:
    def test_zero_when_matching_targets(self):
        z = RNG.standard_normal((40, 3))
        mu = z.mean(axis=0)
        targets = central_moments_np(z, mu, [2, 3, 4, 5])
        d = cmd_distance(Tensor(z), mu, targets).item()
        # l2_norm has an eps floor, so "zero" means a few sqrt(eps)·terms.
        assert d < 1e-4

    def test_positive_for_shifted(self):
        z = RNG.standard_normal((40, 3))
        mu = z.mean(axis=0) + 1.0
        targets = central_moments_np(z, z.mean(axis=0), [2, 3, 4, 5])
        assert cmd_distance(Tensor(z), mu, targets).item() > 0.5

    def test_gradcheck(self):
        z = Tensor(RNG.standard_normal((8, 3)), requires_grad=True)
        target_mean = RNG.standard_normal(3)
        targets = [RNG.standard_normal(3) for _ in range(4)]
        assert gradcheck(lambda t: cmd_distance(t, target_mean, targets), [z])

    def test_span_normalization(self):
        z = RNG.standard_normal((30, 2))
        mu = np.zeros(2)
        targets = [np.zeros(2)] * 4
        d1 = cmd_distance(Tensor(z), mu, targets, a=0, b=1).item()
        d2 = cmd_distance(Tensor(z), mu, targets, a=0, b=2).item()
        assert d2 < d1  # larger span shrinks every term

    def test_rejects_bad_span(self):
        with pytest.raises(ValueError):
            cmd_distance(Tensor(np.zeros((3, 2))), np.zeros(2), [np.zeros(2)] * 4, a=1, b=1)

    def test_rejects_mismatched_targets(self):
        with pytest.raises(ValueError):
            cmd_distance(Tensor(np.zeros((3, 2))), np.zeros(2), [np.zeros(2)])


class TestCMDArrays:
    def test_identical_samples_zero(self):
        z = RNG.standard_normal((50, 4))
        assert cmd_distance_arrays(z, z.copy()) == pytest.approx(0.0, abs=1e-12)

    def test_symmetry(self):
        z1 = RNG.standard_normal((50, 4))
        z2 = RNG.standard_normal((60, 4)) + 0.5
        assert cmd_distance_arrays(z1, z2) == pytest.approx(cmd_distance_arrays(z2, z1))

    def test_triangle_like_monotonicity(self):
        # Larger mean shift -> larger CMD.
        z = RNG.standard_normal((200, 3))
        d_small = cmd_distance_arrays(z, z + 0.1)
        d_big = cmd_distance_arrays(z, z + 1.0)
        assert d_big > d_small

    def test_scale_mismatch_detected(self):
        z = RNG.standard_normal((300, 2))
        assert cmd_distance_arrays(z, 3 * z) > 0.5

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            cmd_distance_arrays(np.zeros((3, 2)), np.zeros((3, 3)))

    def test_matches_tensor_path(self):
        # Two-sample CMD == differentiable CMD with the other sample's
        # statistics as targets.
        z1 = RNG.standard_normal((40, 3))
        z2 = RNG.standard_normal((50, 3)) + 0.3
        mu2 = z2.mean(axis=0)
        targets = central_moments_np(z2, mu2, [2, 3, 4, 5])
        d_tensor = cmd_distance(Tensor(z1), mu2, targets).item()
        d_np = cmd_distance_arrays(z1, z2)
        assert d_tensor == pytest.approx(d_np, rel=1e-4, abs=1e-5)


finite_floats = st.floats(min_value=-5, max_value=5, allow_nan=False, allow_infinity=False)


def samples(rows=8, cols=3):
    return hnp.arrays(np.float64, (rows, cols), elements=finite_floats)


class TestCMDProperties:
    """Hypothesis invariants of the CMD metric (Eq. 11)."""

    @settings(max_examples=50, deadline=None)
    @given(samples())
    def test_identical_distributions_zero(self, z):
        assert cmd_distance_arrays(z, z.copy()) == pytest.approx(0.0, abs=1e-10)

    @settings(max_examples=50, deadline=None)
    @given(samples(), samples(rows=11))
    def test_non_negative(self, z1, z2):
        assert cmd_distance_arrays(z1, z2) >= 0.0

    @settings(max_examples=50, deadline=None)
    @given(samples(), samples(rows=11))
    def test_symmetric(self, z1, z2):
        d = cmd_distance_arrays(z1, z2)
        assert cmd_distance_arrays(z2, z1) == pytest.approx(d, rel=1e-12, abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(samples(), samples(rows=11), st.integers(min_value=0, max_value=2**31))
    def test_node_permutation_invariant(self, z1, z2, perm_seed):
        # CMD sees distributions, not node orderings: shuffling the rows
        # of either sample changes nothing (up to FP summation order).
        rng = np.random.default_rng(perm_seed)
        d = cmd_distance_arrays(z1, z2)
        d_perm = cmd_distance_arrays(rng.permutation(z1), rng.permutation(z2))
        assert d_perm == pytest.approx(d, rel=1e-9, abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(samples(), samples(rows=11))
    def test_monotone_in_order_truncation(self, z1, z2):
        # Every order adds a non-negative term, so truncating the moment
        # sum earlier can only shrink the distance:
        # d_{(2,)} <= d_{(2,3)} <= d_{(2,3,4)} <= d_{(2,3,4,5)}.
        prefixes = [(2,), (2, 3), (2, 3, 4), (2, 3, 4, 5)]
        dists = [cmd_distance_arrays(z1, z2, orders=o) for o in prefixes]
        for shorter, longer in zip(dists, dists[1:]):
            assert shorter <= longer + 1e-12

    @settings(max_examples=50, deadline=None)
    @given(samples())
    def test_tensor_path_agrees_with_numpy(self, z1):
        mu = z1.mean(axis=0)
        targets = central_moments_np(z1, mu, [2, 3, 4, 5])
        d = cmd_distance(Tensor(z1 + 0.1), mu, targets).item()
        d_np = cmd_distance_arrays(z1 + 0.1, z1)
        assert d == pytest.approx(d_np, rel=1e-4, abs=1e-5)


class TestMomentProperties:
    """Hypothesis invariants of central moments."""

    @settings(max_examples=50, deadline=None)
    @given(samples())
    def test_variance_non_negative(self, z):
        (m2,) = central_moments_np(z, z.mean(axis=0), [2])
        assert (m2 >= -1e-15).all()

    @settings(max_examples=50, deadline=None)
    @given(samples(), st.floats(min_value=-3, max_value=3, allow_nan=False))
    def test_shift_invariant_about_own_mean(self, z, c):
        # Central moments about the sample's own mean ignore translation.
        base = central_moments_np(z, z.mean(axis=0), [2, 3, 4, 5])
        shifted = central_moments_np(z + c, (z + c).mean(axis=0), [2, 3, 4, 5])
        for a, b in zip(base, shifted):
            np.testing.assert_allclose(a, b, rtol=1e-7, atol=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(samples(), st.integers(min_value=0, max_value=2**31))
    def test_permutation_invariant(self, z, perm_seed):
        rng = np.random.default_rng(perm_seed)
        base = central_moments_np(z, z.mean(axis=0), [2, 3, 4, 5])
        zp = rng.permutation(z)
        perm = central_moments_np(zp, zp.mean(axis=0), [2, 3, 4, 5])
        for a, b in zip(base, perm):
            np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(samples(), st.floats(min_value=0.1, max_value=3, allow_nan=False))
    def test_homogeneous_of_degree_j(self, z, c):
        # C_j(c·Z) = c^j · C_j(Z).
        base = central_moments_np(z, z.mean(axis=0), [2, 3, 4, 5])
        scaled = central_moments_np(c * z, c * z.mean(axis=0), [2, 3, 4, 5])
        for j, a, b in zip([2, 3, 4, 5], base, scaled):
            np.testing.assert_allclose(b, c**j * a, rtol=1e-7, atol=1e-9)


def power_reference(z, mean, orders):
    """Independent ``np.power`` moments and the scale their error is judged by.

    A moment is a sum, so a fused result can only be expected to agree
    with the reference relative to ``mean |c|^j`` — the size of the
    summands — not to the (possibly cancelled) odd moment itself.
    """
    c = np.asarray(z, dtype=np.float64) - mean
    want = [np.power(c, float(j)).mean(axis=0) for j in orders]
    scale = [np.power(np.abs(c), float(j)).mean(axis=0) for j in orders]
    return want, scale


def assert_matches_power(z, mean, orders, got, rtol=1e-14):
    want, scale = power_reference(z, mean, orders)
    assert len(got) == len(want)
    for j, g, w, s in zip(orders, got, want, scale):
        err = np.abs(g - w)
        assert (err <= rtol * s).all(), f"order {j}: error {err.max():.3g} vs scale {s.max():.3g}"


order_subsets = st.lists(
    st.integers(min_value=1, max_value=6), min_size=1, max_size=6, unique=True
).map(sorted)


@st.composite
def party_blocks(draw, elements=finite_floats):
    n = draw(st.integers(min_value=1, max_value=40))
    d = draw(st.integers(min_value=1, max_value=8))
    return draw(hnp.arrays(np.float64, (n, d), elements=elements))


class TestFusedCentralMoments:
    """The fused kernel against an ``np.power`` reference, and its backward."""

    @settings(max_examples=100, deadline=None)
    @given(party_blocks(), order_subsets)
    def test_numpy_form_matches_power(self, z, orders):
        mean = z.mean(axis=0)
        got = central_moments_np(z, mean, orders)
        assert_matches_power(z, mean, orders, got)

    @settings(max_examples=100, deadline=None)
    @given(party_blocks(), order_subsets)
    def test_tensor_form_matches_numpy_form(self, z, orders):
        mean = z.mean(axis=0)
        targets = [np.zeros(z.shape[1])] * len(orders)
        got = cmd_distance(Tensor(z), mean, targets, orders=orders).item()
        assert got == numpy_cmd(z, mean, targets, orders)

    @pytest.mark.parametrize("layout", ["contiguous", "strided"])
    @pytest.mark.parametrize("orders", [(1,), (2, 3, 4, 5), (3, 5)])
    def test_ladder_without_powers_is_bitwise_the_kept_ladder(self, orders, layout):
        # The upload path writes every power into one buffer in place;
        # the loss's path keeps them for its backward.  Same moments.
        z = RNG.standard_normal((29, 12))
        centered = z - z.mean(axis=0)
        if layout == "strided":
            z = z[::2, ::3]
            wide = np.zeros((z.shape[0], 2 * z.shape[1]))
            wide[:, ::2] = z - z.mean(axis=0)
            centered = wide[:, ::2]
            assert not z.flags.c_contiguous and not centered.flags.c_contiguous
        kept, powers = _moment_ladder(centered, orders)
        got, none = _moment_ladder(centered, orders, keep_powers=False)
        assert none == []
        assert len(powers) == max(orders) - 1
        assert bits(got) == bits(kept)
        upload = central_moments_np(z, z.mean(axis=0), orders)
        assert [bits(m) for m in upload] == [bits(m) for m in kept]
        assert_matches_power(z, z.mean(axis=0), orders, upload)

    @pytest.mark.parametrize("orders", [(2, 3, 4, 5), (2, 5), (1, 3)])
    def test_gradcheck(self, orders):
        z = Tensor(RNG.standard_normal((7, 3)), requires_grad=True)
        mu = RNG.standard_normal(3)
        targets = [RNG.standard_normal(3) for _ in orders]
        assert gradcheck(lambda t: cmd_distance(t, mu, targets, orders=orders), [z])

    def test_one_node_party_is_exactly_zero_with_finite_gradient(self):
        z = Tensor(RNG.standard_normal((1, 4)), requires_grad=True)
        zeros = [np.zeros(4)] * 4
        # Every moment of one node is exactly 0 and its mean is the node,
        # so each of the five norm terms is its ε floor alone.
        dist = cmd_distance(z, z.data[0].copy(), zeros)
        assert dist.item() == numpy_cmd(z.data, z.data[0], zeros, (2, 3, 4, 5))
        dist.backward()
        np.testing.assert_array_equal(z.grad, 0.0)
        for m in central_moments_np(z.data, z.data.mean(axis=0), (2, 3, 4, 5)):
            np.testing.assert_array_equal(m, 0.0)

    def test_empty_orders(self):
        z = RNG.standard_normal((5, 3))
        assert central_moments_np(z, z.mean(axis=0), ()) == []
        t = Tensor(z, requires_grad=True)
        mu = RNG.standard_normal(3)
        # No moment terms: Eq. 11 is the mean term alone.
        assert cmd_distance(t, mu, [], orders=()).item() == numpy_cmd(z, mu, [], ())

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            cmd_distance(Tensor(np.zeros(3)), np.zeros(3), [np.zeros(3)], orders=(2,))
        with pytest.raises(ValueError):
            cmd_distance(Tensor(np.zeros((3, 2))), np.zeros(2), [np.zeros(2)] * 2, orders=(0, 2))


def heavy_tailed(seed, family, n, d, magnitude):
    """Lognormal or Student-t (df=2) activations scaled to ``max |z| = magnitude``."""
    rng = np.random.default_rng(seed)
    if family == "lognormal":
        z = rng.lognormal(mean=0.0, sigma=2.0, size=(n, d))
    else:
        z = rng.standard_t(df=2, size=(n, d))
    return z * (magnitude / np.max(np.abs(z)))


class TestHeavyTailedNumerics:
    """CMD stays finite on heavy-tailed activations up to magnitude 1e3."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**31),
        st.sampled_from(["lognormal", "student_t"]),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=8),
        st.floats(min_value=1.0, max_value=1e3),
    )
    def test_cmd_and_gradient_finite(self, seed, family, n, d, magnitude):
        z = heavy_tailed(seed, family, n, d, magnitude)
        orders = (2, 3, 4, 5)
        mean = z.mean(axis=0)
        assert_matches_power(z, mean, orders, central_moments_np(z, mean, orders))

        # Targets from a second draw of the same family; (a, b) spans
        # both draws, widened to unit length when they coincide (a
        # one-node lognormal draw is exactly ``magnitude``).
        other = heavy_tailed(seed + 1, family, n, d, magnitude)
        target_mean = other.mean(axis=0)
        targets = central_moments_np(other, target_mean, orders)
        a = min(float(np.min(z)), float(np.min(other)))
        b = max(float(np.max(z)), float(np.max(other)))
        if b - a < 1e-12:
            b = a + 1.0
        t = Tensor(z, requires_grad=True)
        dist = cmd_distance(t, target_mean, targets, a=a, b=b, orders=orders)
        assert np.isfinite(dist.item())
        dist.backward()
        assert np.isfinite(t.grad).all()


class TestLayerwiseCMD:
    def test_sums_layers(self):
        z = RNG.standard_normal((20, 3))
        mu = np.zeros(3)
        targets = [np.zeros(3)] * 4
        single = cmd_distance(Tensor(z), mu, targets).item()
        double = layerwise_cmd([Tensor(z), Tensor(z)], [mu, mu], [targets, targets]).item()
        assert double == pytest.approx(2 * single, rel=1e-10)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            layerwise_cmd([], [], [])

    def test_mismatch_rejected(self):
        with pytest.raises(ValueError):
            layerwise_cmd([Tensor(np.zeros((3, 2)))], [], [])


def two_layer_inputs(seed, n=23, dims=(5, 4), zero_difference=False):
    """Activations and targets of two hidden layers.

    With ``zero_difference`` the targets are each layer's own statistics,
    so every moment difference is exactly 0 and each norm is its ε floor.
    """
    rng = np.random.default_rng(seed)
    orders = (2, 3, 4, 5)
    hidden = [np.maximum(rng.standard_normal((n, d)), 0.0) for d in dims]
    if zero_difference:
        means = [h.mean(axis=0) for h in hidden]
        moments = [central_moments_np(h, m, orders) for h, m in zip(hidden, means)]
    else:
        means = [rng.standard_normal(d) * 0.1 for d in dims]
        moments = [[rng.standard_normal(d) * 0.01 for _ in orders] for d in dims]
    return hidden, means, moments


class TestFusedOracle:
    """The fused Eq. 11 op against the composite chain, bit for bit."""

    @staticmethod
    def run(cmd, hidden, means, moments, g=0.37):
        zs = [Tensor(h.copy(), requires_grad=True) for h in hidden]
        out = cmd(zs, means, moments)
        out.backward(np.asarray(g))
        return out.data, [z.grad for z in zs]

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("zero_difference", [False, True], ids=["random", "eps-path"])
    def test_value_and_gradients_bitwise(self, seed, zero_difference):
        inputs = two_layer_inputs(seed, zero_difference=zero_difference)
        got_value, got_grads = self.run(layerwise_cmd, *inputs)
        want_value, want_grads = self.run(ref_layerwise_cmd, *inputs)
        assert bits(got_value) == bits(want_value)
        for got, want in zip(got_grads, want_grads):
            assert bits(got) == bits(want)

    @pytest.mark.parametrize("cmd_first", [False, True], ids=["cmd-added-last", "cmd-added-first"])
    @pytest.mark.parametrize("seed", range(3))
    def test_shared_activations_accumulate_in_the_chains_order(self, seed, cmd_first):
        # Each hidden layer also feeds the next layer, the last one the
        # classifier, as in OrthoGCN: z's gradient sums the CMD term's
        # contributions and the other consumers' in one order, and the
        # parameters' gradients (and so the training digest) depend on it.
        rng = np.random.default_rng(100 + seed)
        x = rng.standard_normal((23, 6))
        weights = [rng.standard_normal(shape) * 0.5 for shape in ((6, 5), (5, 4), (4, 3))]
        _, means, moments = two_layer_inputs(seed)

        def grads(cmd):
            w1, w2, w3 = (Tensor(w.copy(), requires_grad=True) for w in weights)
            z1 = relu(matmul(Tensor(x), w1))
            z2 = relu(matmul(z1, w2))
            task = (matmul(z2, w3) * matmul(z2, w3)).sum() * 0.01
            reg = cmd([z1, z2], means, moments) * 0.5
            loss = reg + task if cmd_first else task + reg
            loss.backward()
            return loss.data, [w.grad for w in (w1, w2, w3)]

        got_value, got = grads(layerwise_cmd)
        want_value, want = grads(ref_layerwise_cmd)
        assert bits(got_value) == bits(want_value)
        for g, w in zip(got, want):
            assert bits(g) == bits(w)

    def test_gradcheck_two_layers(self):
        hidden, means, moments = two_layer_inputs(7, n=6, dims=(3, 2))
        zs = [Tensor(h + 0.1, requires_grad=True) for h in hidden]
        assert gradcheck(lambda a, b: layerwise_cmd([a, b], means, moments), zs)

    def test_terms_are_the_per_layer_distances(self):
        hidden, means, moments = two_layer_inputs(8)
        terms = []
        total = layerwise_cmd([Tensor(h) for h in hidden], means, moments, terms=terms)
        want = [ref_cmd_distance(Tensor(h), m, s).item() for h, m, s in zip(hidden, means, moments)]
        assert terms == want
        assert total.item() == terms[0] + terms[1]

"""Property suite for the async engine's staleness-weighted aggregation.

Hypothesis drives the three pure functions the engine is built from —
:func:`staleness_weights`, :func:`proximal_correction`,
:func:`quorum_target` — across arbitrary sample counts, staleness
vectors and arrival orders, pinning the invariants the golden-digest
equivalence test rests on:

* weights are a probability vector (non-negative, sum 1) no matter the
  order updates arrived in, and permuting the arrivals permutes the
  weights — aggregation is order-free;
* at zero staleness the weights are *bitwise* the FedAvg weights
  ``n / n.sum()`` and the proximal correction returns its input object
  untouched — the exactness that lets a full-quorum async run replay
  the barrier trajectory;
* NaN-quarantined clients leave the denominator entirely: the surviving
  weights are those of an aggregation that never saw the bad client.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.federated import (
    fedavg,
    proximal_correction,
    quorum_target,
    staleness_weights,
)
from repro.federated.async_engine import _ClientUpdate, fold_arrivals

counts_st = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=1, max_size=12
)
decay_st = st.floats(min_value=1e-3, max_value=1.0, exclude_min=False)
finite = st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False)


@st.composite
def counts_and_staleness(draw):
    counts = draw(counts_st)
    stale = draw(
        st.lists(
            st.integers(min_value=0, max_value=20),
            min_size=len(counts),
            max_size=len(counts),
        )
    )
    return counts, stale


class TestStalenessWeights:
    @settings(max_examples=80, deadline=None)
    @given(counts_and_staleness(), decay_st)
    def test_probability_vector(self, cs, decay):
        counts, stale = cs
        lam = staleness_weights(counts, stale, decay)
        assert lam.shape == (len(counts),)
        assert np.all(lam >= 0)
        np.testing.assert_allclose(lam.sum(), 1.0, atol=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(counts_and_staleness(), decay_st, st.randoms(use_true_random=False))
    def test_arrival_order_free(self, cs, decay, rnd):
        # The server sorts arrivals by client id before weighting; this
        # pins that the math itself is permutation-equivariant, so the
        # *arrival* order (a race in a real deployment) cannot matter.
        counts, stale = cs
        perm = list(range(len(counts)))
        rnd.shuffle(perm)
        lam = staleness_weights(counts, stale, decay)
        lam_shuffled = staleness_weights(
            [counts[i] for i in perm], [stale[i] for i in perm], decay
        )
        # Equal up to summation order: the normalizing sum is the one
        # float op whose rounding depends on arrival order.
        np.testing.assert_allclose(lam_shuffled, lam[perm], rtol=1e-12, atol=1e-15)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=10**6), min_size=1, max_size=12), decay_st)
    def test_zero_staleness_is_bitwise_fedavg(self, counts, decay):
        # decay**0 == 1.0 exactly, so the weights must equal FedAvg's
        # w / w.sum() to the bit — not merely within tolerance.
        lam = staleness_weights(counts, [0] * len(counts), decay)
        w = np.asarray(counts, dtype=np.float64)
        np.testing.assert_array_equal(lam, w / w.sum())

    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=1.0, max_value=100.0), st.integers(1, 10), decay_st)
    def test_staler_weighs_less(self, n, s, decay):
        lam = staleness_weights([n, n], [0, s], decay)
        if decay < 1.0:
            assert lam[1] < lam[0]
        else:
            np.testing.assert_array_equal(lam, [0.5, 0.5])

    def test_all_zero_mass_falls_back_to_uniform(self):
        np.testing.assert_array_equal(
            staleness_weights([0.0, 0.0, 0.0], [1, 2, 3], 0.5), [1 / 3] * 3
        )

    @pytest.mark.parametrize(
        "counts,stale,decay,match",
        [
            ([], [], 0.5, "no contributions"),
            ([1.0], [1, 2], 0.5, "equal-length"),
            ([-1.0], [0], 0.5, "non-negative"),
            ([1.0], [-1], 0.5, "non-negative"),
            ([1.0], [0], 0.0, "decay"),
            ([1.0], [0], 1.5, "decay"),
        ],
    )
    def test_validation(self, counts, stale, decay, match):
        with pytest.raises(ValueError, match=match):
            staleness_weights(counts, stale, decay)


class TestProximalCorrection:
    @settings(max_examples=60, deadline=None)
    @given(
        hnp.arrays(np.float64, (3, 2), elements=finite),
        hnp.arrays(np.float64, (3, 2), elements=finite),
        st.integers(min_value=1, max_value=20),
        st.floats(min_value=1e-3, max_value=10.0),
    )
    def test_pulls_toward_global_within_segment(self, w, g, s, mu):
        out = proximal_correction({"w": w}, {"w": g}, s, mu)["w"]
        lo, hi = np.minimum(w, g), np.maximum(w, g)
        assert np.all(out >= lo - 1e-12) and np.all(out <= hi + 1e-12)
        # γ = μs/(1+μs) < 1: the correction never overshoots the anchor,
        # and more staleness means a stronger pull.
        gamma = (mu * s) / (1 + mu * s)
        np.testing.assert_allclose(out, w + gamma * (g - w), atol=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(
        hnp.arrays(np.float64, (4,), elements=finite),
        hnp.arrays(np.float64, (4,), elements=finite),
    )
    def test_zero_staleness_returns_same_object(self, w, g):
        state = {"w": w}
        assert proximal_correction(state, {"w": g}, 0, 0.1) is state
        assert proximal_correction(state, {"w": g}, 5, 0.0) is state

    def test_validation(self):
        with pytest.raises(ValueError, match="staleness"):
            proximal_correction({}, {}, -1, 0.1)
        with pytest.raises(ValueError, match="mu must be non-negative"):
            proximal_correction({}, {}, 1, -0.1)


class TestQuorumTarget:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 2000), st.floats(min_value=0.01, max_value=1.0))
    def test_bounds(self, n, q):
        t = quorum_target(n, q)
        assert 1 <= t <= n

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 2000))
    def test_full_quorum_is_everyone(self, n):
        assert quorum_target(n, 1.0) == n

    def test_float_representation_absorbed(self):
        # 0.8 * 5 is 4.000000000000001 in binary; ceil must not bump it.
        assert quorum_target(5, 0.8) == 4
        assert quorum_target(10, 0.3) == 3

    def test_empty_dispatch_waits_for_backlog(self):
        assert quorum_target(0, 0.5) == 1

    def test_validation(self):
        with pytest.raises(ValueError, match="quorum"):
            quorum_target(5, 0.0)
        with pytest.raises(ValueError, match="quorum"):
            quorum_target(5, 1.5)


class TestQuarantineDenominator:
    """NaN-quarantined clients are excluded from the weight denominator."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                hnp.arrays(np.float64, (2, 2), elements=finite),
                st.integers(min_value=1, max_value=100),
            ),
            min_size=2,
            max_size=6,
        ),
        st.data(),
    )
    def test_survivor_weights_renormalize(self, contributions, data):
        # Poison a strict subset; the aggregate over the survivors must
        # equal an aggregation that never saw the poisoned clients —
        # same weights, same denominator.
        n = len(contributions)
        bad = data.draw(
            st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1)
        )
        states, counts = [], []
        for i, (w, c) in enumerate(contributions):
            if i in bad:
                w = np.full_like(w, np.nan)
            states.append({"w": w})
            counts.append(c)
        survivors = [i for i in range(n) if i not in bad]
        # What the engine's _aggregate does after quarantining:
        kept_states = [states[i] for i in survivors]
        kept_counts = [counts[i] for i in survivors]
        lam = staleness_weights(kept_counts, [0] * len(survivors), 0.5)
        merged = fedavg(kept_states, lam.tolist())["w"]
        clean = fedavg(kept_states, kept_counts)["w"]
        np.testing.assert_allclose(merged, clean, atol=1e-12)
        assert np.isfinite(merged).all()


@st.composite
def arrival_sets(draw, max_staleness=0):
    """Distinct-cid _ClientUpdate lists plus a permutation of them."""
    n = draw(st.integers(min_value=1, max_value=6))
    version = draw(st.integers(min_value=max_staleness, max_value=max_staleness + 3))
    updates = []
    for cid in range(n):
        state = {
            "w": draw(hnp.arrays(np.float64, (2, 3), elements=finite)),
            "b": draw(hnp.arrays(np.float64, (3,), elements=finite)),
        }
        stale = draw(st.integers(min_value=0, max_value=max_staleness))
        updates.append(
            _ClientUpdate(
                cid=cid,
                state=state,
                num_train=draw(st.integers(min_value=1, max_value=50)),
                base_version=version - stale,
            )
        )
    perm = draw(st.permutations(list(range(n))))
    return updates, [updates[i] for i in perm], version


class TestFoldArrivalsPermutationInvariance:
    """Order-insensitive aggregation: the fold is a pure function of the *set*.

    ``test_async_engine.py`` re-checks this end to end on a run whose
    stragglers reorder the engine's pops; these properties pin the
    reduction itself, bitwise.
    """

    @settings(max_examples=60, deadline=None)
    @given(arrival_sets(max_staleness=0))
    def test_same_arrival_time_reports_commute_bitwise(self, drawn):
        # All-zero staleness — the regime of same-arrival-time reports at
        # full quorum: any pop order must take the identical fedavg call.
        original, permuted, version = drawn
        a = fold_arrivals(
            original, version, None,
            max_staleness=8, decay=0.5, mu=0.1,
        )
        b = fold_arrivals(
            permuted, version, None,
            max_staleness=8, decay=0.5, mu=0.1,
        )
        assert a.kept == b.kept
        assert a.new_global is not None
        for k in a.new_global:
            assert np.array_equal(a.new_global[k], b.new_global[k])
        ref = fedavg(
            [u.state for u in sorted(original, key=lambda u: u.cid)],
            [u.num_train for u in sorted(original, key=lambda u: u.cid)],
        )
        for k in ref:
            assert np.array_equal(a.new_global[k], ref[k])

    @settings(max_examples=60, deadline=None)
    @given(arrival_sets(max_staleness=5))
    def test_stale_mix_still_permutation_invariant(self, drawn):
        original, permuted, version = drawn
        global_state = {
            "w": np.zeros((2, 3)),
            "b": np.zeros(3),
        }
        a = fold_arrivals(
            original, version, global_state,
            max_staleness=3, decay=0.7, mu=0.1,
        )
        b = fold_arrivals(
            permuted, version, global_state,
            max_staleness=3, decay=0.7, mu=0.1,
        )
        assert a.kept == b.kept
        assert a.quarantined == b.quarantined and a.discarded == b.discarded
        if a.new_global is None:
            assert b.new_global is None
        else:
            for k in a.new_global:
                assert np.array_equal(a.new_global[k], b.new_global[k])

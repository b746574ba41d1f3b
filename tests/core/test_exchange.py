"""Tests for the 2-round moment exchange (Algorithm 1's server protocol)."""

import numpy as np
import pytest

from repro.core.exchange import MomentExchange, pooled_central_moments
from repro.federated import Communicator

RNG = np.random.default_rng(23)


def make_hidden(num_clients=3, layers=2, dim=4, sizes=(10, 20, 30)):
    return [
        [RNG.standard_normal((sizes[i % len(sizes)], dim)) + i for _ in range(layers)]
        for i in range(num_clients)
    ]


class TestExchangeExactness:
    def test_global_means_match_pooled(self):
        hidden = make_hidden()
        counts = [h[0].shape[0] for h in hidden]
        comm = Communicator(num_clients=3)
        got = MomentExchange(comm).run(hidden, counts)
        want = pooled_central_moments(hidden)
        for g_mean, w_mean in zip(got.means, want.means):
            np.testing.assert_allclose(g_mean, w_mean, rtol=1e-12)

    def test_global_moments_match_pooled_exactly(self):
        # The decomposition E((Z-M)^j) = Σ (n_i/n)·E((Z_i-M)^j) is exact —
        # the heart of the 2-round trick (§4.4, DESIGN.md).
        hidden = make_hidden(num_clients=4, layers=3, dim=5)
        counts = [h[0].shape[0] for h in hidden]
        comm = Communicator(num_clients=4)
        got = MomentExchange(comm).run(hidden, counts)
        want = pooled_central_moments(hidden)
        for l in range(3):
            for oi in range(4):
                np.testing.assert_allclose(
                    got.moments[l][oi], want.moments[l][oi], rtol=1e-10, atol=1e-12
                )

    def test_single_client_recovers_own_moments(self):
        hidden = make_hidden(num_clients=1)
        comm = Communicator(num_clients=1)
        got = MomentExchange(comm).run(hidden, [hidden[0][0].shape[0]])
        z = hidden[0][0]
        np.testing.assert_allclose(got.means[0], z.mean(axis=0))
        np.testing.assert_allclose(got.moments[0][0], z.var(axis=0), rtol=1e-10)

    def test_weighting_matters(self):
        # A huge client should dominate the global mean.
        h_small = [np.zeros((5, 2))]
        h_big = [np.ones((500, 2))]
        comm = Communicator(num_clients=2)
        got = MomentExchange(comm).run([h_small, h_big], [5, 500])
        np.testing.assert_allclose(got.means[0], np.full(2, 500 / 505), rtol=1e-12)


class TestExchangeProtocol:
    def test_traffic_is_statistics_scale(self):
        # The exchange must move statistics (d-dim vectors), not features
        # (n×d matrices): total traffic << raw-feature upload.
        hidden = make_hidden(num_clients=3, layers=2, dim=8, sizes=(100, 100, 100))
        counts = [100, 100, 100]
        comm = Communicator(num_clients=3)
        MomentExchange(comm).run(hidden, counts)
        raw_bytes = sum(z.nbytes for h in hidden for z in h)
        assert comm.stats.total_bytes < raw_bytes / 5

    def test_uses_two_gathers_and_two_broadcasts(self):
        hidden = make_hidden(num_clients=2)
        comm = Communicator(num_clients=2)
        MomentExchange(comm).run(hidden, [10, 20])
        # 2 gathers (means, moments) ⇒ 2 uplink msgs per client.
        assert comm.stats.uplink_messages == 4
        # 2 broadcasts ⇒ 2 downlink msgs per client.
        assert comm.stats.downlink_messages == 4

    def test_validates_client_count(self):
        comm = Communicator(num_clients=2)
        with pytest.raises(ValueError):
            MomentExchange(comm).run(make_hidden(num_clients=3), [1, 2, 3])

    def test_validates_counts_length(self):
        comm = Communicator(num_clients=2)
        with pytest.raises(ValueError):
            MomentExchange(comm).run(make_hidden(num_clients=2), [1])

    def test_validates_layer_agreement(self):
        comm = Communicator(num_clients=2)
        bad = [[np.zeros((3, 2))], [np.zeros((3, 2)), np.zeros((3, 2))]]
        with pytest.raises(ValueError):
            MomentExchange(comm).run(bad, [3, 3])

    def test_rejects_no_layers(self):
        comm = Communicator(num_clients=1)
        with pytest.raises(ValueError):
            MomentExchange(comm).run([[]], [3])

    def test_rejects_order_one(self):
        comm = Communicator(num_clients=1)
        with pytest.raises(ValueError):
            MomentExchange(comm, orders=(1, 2))

    def test_subset_participation_matches_pooled_subset(self):
        # With client sampling only participants exchange statistics; the
        # result must be the pooled moments of exactly that subset.
        hidden = make_hidden(num_clients=4, layers=2, dim=3)
        counts = [h[0].shape[0] for h in hidden]
        participants = [1, 3]
        comm = Communicator(num_clients=4)
        got = MomentExchange(comm).run(
            [hidden[i] for i in participants],
            [counts[i] for i in participants],
            client_ids=participants,
        )
        want = pooled_central_moments([hidden[i] for i in participants])
        for l in range(2):
            np.testing.assert_allclose(got.means[l], want.means[l], rtol=1e-12)
            for oi in range(4):
                np.testing.assert_allclose(
                    got.moments[l][oi], want.moments[l][oi], rtol=1e-10, atol=1e-12
                )

    def test_subset_traffic_scales_with_participants(self):
        hidden = make_hidden(num_clients=4, layers=2, dim=3)
        counts = [h[0].shape[0] for h in hidden]
        comm = Communicator(num_clients=4)
        MomentExchange(comm).run(
            [hidden[1], hidden[3]], [counts[1], counts[3]], client_ids=[1, 3]
        )
        # 2 participants × 2 statistic rounds, up and down — nothing for
        # the unsampled clients 0 and 2.
        assert comm.stats.uplink_messages == 4
        assert comm.stats.downlink_messages == 4

    def test_subset_rejects_bad_ids(self):
        hidden = make_hidden(num_clients=2)
        comm = Communicator(num_clients=4)
        with pytest.raises(ValueError):
            MomentExchange(comm).run(hidden, [10, 20], client_ids=[0])  # length
        with pytest.raises(ValueError):
            MomentExchange(comm).run(hidden, [10, 20], client_ids=[1, 1])  # dup
        with pytest.raises(ValueError):
            MomentExchange(comm).run(hidden, [10, 20], client_ids=[0, 7])  # range

    def test_orders_carried_through(self):
        comm = Communicator(num_clients=1)
        got = MomentExchange(comm, orders=(2, 4)).run(make_hidden(num_clients=1), [10])
        assert got.orders == (2, 4)
        assert len(got.moments[0]) == 2
        assert got.num_layers == 2

    def test_single_order_keeps_per_layer_lists(self):
        # One order still yields moments[layer][order], as the CMD loss
        # zips each layer's moments with the orders.
        hidden = make_hidden()
        counts = [h[0].shape[0] for h in hidden]
        got = MomentExchange(Communicator(num_clients=3), orders=(2,)).run(hidden, counts)
        want = pooled_central_moments(hidden, orders=(2,))
        for l in range(2):
            assert len(got.moments[l]) == 1
            np.testing.assert_allclose(got.moments[l][0], want.moments[l][0], rtol=1e-10)

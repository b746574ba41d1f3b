"""Tests for the secure-aggregation, DP, and partitioner extensions."""

import numpy as np
import pytest

from repro.core.exchange import MomentExchange, pooled_central_moments
from repro.extensions import (
    NoisyMomentExchange,
    SecureMomentExchange,
    bfs_balanced_partition,
    gaussian_mechanism_epsilon,
    pairwise_masks,
)
from repro.federated import Communicator
from repro.graphs import label_divergence, load_dataset, louvain_partition, random_partition

RNG = np.random.default_rng(31)


def make_hidden(num_clients=3, layers=2, dim=4):
    sizes = (10, 20, 30, 15)
    return [
        [RNG.standard_normal((sizes[i % 4], dim)) + i for _ in range(layers)]
        for i in range(num_clients)
    ]


class TestPairwiseMasks:
    def test_masks_cancel(self):
        masks = pairwise_masks(4, [(3,), (5,)], round_seed=7)
        for k in range(2):
            total = sum(masks[i][k] for i in range(4))
            np.testing.assert_allclose(total, 0.0, atol=1e-12)

    def test_single_client_zero_mask(self):
        masks = pairwise_masks(1, [(3,)], round_seed=0)
        np.testing.assert_array_equal(masks[0][0], 0.0)

    def test_individual_masks_nonzero(self):
        masks = pairwise_masks(3, [(4,)], round_seed=1)
        assert all(np.abs(m[0]).sum() > 0 for m in masks)

    def test_seed_determinism(self):
        a = pairwise_masks(3, [(4,)], round_seed=5)
        b = pairwise_masks(3, [(4,)], round_seed=5)
        np.testing.assert_array_equal(a[0][0], b[0][0])


class TestSecureExchange:
    def test_matches_plain_exchange(self):
        hidden = make_hidden(num_clients=4, layers=3, dim=5)
        counts = [h[0].shape[0] for h in hidden]
        plain = MomentExchange(Communicator(num_clients=4)).run(hidden, counts)
        secure = SecureMomentExchange(Communicator(num_clients=4), round_seed=3).run(
            hidden, counts
        )
        for l in range(3):
            np.testing.assert_allclose(secure.means[l], plain.means[l], atol=1e-9)
            for oi in range(4):
                np.testing.assert_allclose(
                    secure.moments[l][oi], plain.moments[l][oi], atol=1e-9
                )

    def test_uploads_are_masked(self):
        # The payload a single client sends must differ from its true
        # weighted statistic (that's the privacy property).
        hidden = make_hidden(num_clients=2, layers=1, dim=3)
        counts = [h[0].shape[0] for h in hidden]
        comm = Communicator(num_clients=2)
        ex = SecureMomentExchange(comm, round_seed=9)
        # Monkeypatch the uplink to capture the raw uploads.
        captured = []
        orig = comm.send_to_server

        def spy(cid, payload, **kwargs):
            if "means" in payload:
                captured.append((cid, payload["means"][0].copy()))
            return orig(cid, payload, **kwargs)

        comm.send_to_server = spy
        ex.run(hidden, counts)
        true_stat = counts[0] * hidden[0][0].mean(axis=0)
        assert captured[0][0] == 0
        assert np.abs(captured[0][1] - true_stat).max() > 0.1

    def test_validates_inputs_like_the_plain_exchange(self):
        # The masked encoding runs MomentExchange.run's protocol, checks
        # included: a participant without a count would leave its mask
        # uncancelled, and ragged layer lists have no per-layer sum.
        hidden = make_hidden(num_clients=3)
        counts = [h[0].shape[0] for h in hidden]
        for exchange in (MomentExchange, SecureMomentExchange):
            with pytest.raises(ValueError, match="one count per participant"):
                exchange(Communicator(num_clients=3)).run(hidden, counts[:2])
            ragged = [hidden[0], hidden[1][:1], hidden[2]]
            with pytest.raises(ValueError, match="disagree on layer count"):
                exchange(Communicator(num_clients=3)).run(ragged, counts)

    def test_matches_pooled_oracle(self):
        hidden = make_hidden(num_clients=3)
        counts = [h[0].shape[0] for h in hidden]
        secure = SecureMomentExchange(Communicator(num_clients=3)).run(hidden, counts)
        oracle = pooled_central_moments(hidden)
        np.testing.assert_allclose(secure.means[0], oracle.means[0], atol=1e-9)
        np.testing.assert_allclose(secure.moments[0][0], oracle.moments[0][0], atol=1e-9)

    def test_composes_with_client_sampling(self):
        # Pairwise masks cancel over any participant subset, so secure
        # aggregation works under partial participation too.
        hidden = make_hidden(num_clients=4)
        counts = [h[0].shape[0] for h in hidden]
        sub = [0, 2]
        secure = SecureMomentExchange(Communicator(num_clients=4)).run(
            [hidden[i] for i in sub], [counts[i] for i in sub], client_ids=sub
        )
        oracle = pooled_central_moments([hidden[i] for i in sub])
        np.testing.assert_allclose(secure.means[0], oracle.means[0], atol=1e-9)
        np.testing.assert_allclose(secure.moments[0][0], oracle.moments[0][0], atol=1e-9)


class TestNoisyExchange:
    def test_zero_sigma_is_exact(self):
        hidden = make_hidden()
        counts = [h[0].shape[0] for h in hidden]
        plain = MomentExchange(Communicator(num_clients=3)).run(hidden, counts)
        noisy = NoisyMomentExchange(Communicator(num_clients=3), sigma=0.0).run(hidden, counts)
        np.testing.assert_allclose(noisy.means[0], plain.means[0], atol=1e-12)

    def test_noise_perturbs(self):
        hidden = make_hidden()
        counts = [h[0].shape[0] for h in hidden]
        plain = MomentExchange(Communicator(num_clients=3)).run(hidden, counts)
        noisy = NoisyMomentExchange(
            Communicator(num_clients=3), sigma=5.0, rng=np.random.default_rng(0)
        ).run(hidden, counts)
        assert np.abs(noisy.means[0] - plain.means[0]).max() > 1e-4

    def test_noise_shrinks_with_party_size(self):
        # Same sigma, bigger parties → smaller deviation from truth.
        def deviation(scale):
            hidden = [[RNG.standard_normal((scale, 8))] for _ in range(3)]
            counts = [scale] * 3
            plain = MomentExchange(Communicator(num_clients=3), orders=(2,)).run(hidden, counts)
            noisy = NoisyMomentExchange(
                Communicator(num_clients=3), orders=(2,), sigma=1.0,
                rng=np.random.default_rng(1),
            ).run(hidden, counts)
            return np.abs(noisy.means[0] - plain.means[0]).mean()

        assert deviation(400) < deviation(10)

    def test_invalid_sigma(self):
        with pytest.raises(ValueError):
            NoisyMomentExchange(Communicator(num_clients=1), sigma=-1.0)

    def test_epsilon_accounting(self):
        # Smaller sigma → larger epsilon (less privacy).
        assert gaussian_mechanism_epsilon(0.5) > gaussian_mechanism_epsilon(2.0)

    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            gaussian_mechanism_epsilon(0.0)
        with pytest.raises(ValueError):
            gaussian_mechanism_epsilon(1.0, delta=2.0)


class TestBFSPartition:
    @pytest.fixture(scope="class")
    def graph(self):
        return load_dataset("cora", seed=0, scale=0.3)

    def test_covers_all_nodes(self, graph):
        pr = bfs_balanced_partition(graph, 4, np.random.default_rng(0))
        all_nodes = np.concatenate(pr.node_maps)
        assert len(np.unique(all_nodes)) == graph.num_nodes

    def test_balanced(self, graph):
        pr = bfs_balanced_partition(graph, 4, np.random.default_rng(0))
        sizes = np.array(pr.sizes())
        assert sizes.max() <= 1.5 * sizes.min() + 2

    def test_less_noniid_than_louvain(self, graph):
        rng = np.random.default_rng(0)
        louvain = louvain_partition(graph, 4, rng)
        bfs = bfs_balanced_partition(graph, 4, rng)
        rand = random_partition(graph, 4, rng)
        js_louvain = label_divergence(louvain.parts)
        js_bfs = label_divergence(bfs.parts)
        js_rand = label_divergence(rand.parts)
        # BFS sits between random and Louvain in non-iid-ness.
        assert js_rand < js_bfs
        assert js_bfs < js_louvain * 1.5  # not wildly above Louvain

    def test_invalid_parties(self, graph):
        with pytest.raises(ValueError):
            bfs_balanced_partition(graph, 0, np.random.default_rng(0))

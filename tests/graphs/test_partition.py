"""Tests for Louvain/random partitioning and non-iid metrics."""

import numpy as np
import pytest

from repro.graphs import (
    feature_mean_distance,
    label_divergence,
    load_dataset,
    louvain_partition,
    party_label_matrix,
    random_partition,
    subgraph,
)
from repro.graphs.metrics_noniid import label_distribution, missing_classes_per_party


@pytest.fixture(scope="module")
def cora_small():
    return load_dataset("cora", seed=0, scale=0.4)


class TestSubgraph:
    def test_node_slice(self, cora_small):
        nodes = np.arange(50)
        s = subgraph(cora_small, nodes)
        assert s.num_nodes == 50
        np.testing.assert_array_equal(s.y, cora_small.y[:50])

    def test_masks_sliced(self, cora_small):
        nodes = np.arange(100)
        s = subgraph(cora_small, nodes)
        np.testing.assert_array_equal(s.train_mask, cora_small.train_mask[:100])

    def test_cross_edges_dropped(self, cora_small):
        half = cora_small.num_nodes // 2
        a = subgraph(cora_small, np.arange(half))
        b = subgraph(cora_small, np.arange(half, cora_small.num_nodes))
        assert a.num_edges + b.num_edges <= cora_small.num_edges

    def test_num_classes_preserved(self, cora_small):
        s = subgraph(cora_small, np.arange(10))
        assert s.num_classes == cora_small.num_classes

    def test_empty_rejected(self, cora_small):
        with pytest.raises(ValueError):
            subgraph(cora_small, np.array([], dtype=int))

    def test_adjacency_stays_symmetric(self, cora_small):
        s = subgraph(cora_small, np.arange(0, cora_small.num_nodes, 3))
        s.validate()


class TestLouvainPartition:
    @pytest.mark.parametrize("m", [3, 5, 7])
    def test_party_count(self, cora_small, m):
        pr = louvain_partition(cora_small, m, np.random.default_rng(0))
        assert pr.num_parties == m
        assert all(s > 0 for s in pr.sizes())

    def test_covers_all_nodes_exactly_once(self, cora_small):
        pr = louvain_partition(cora_small, 4, np.random.default_rng(1))
        all_nodes = np.concatenate(pr.node_maps)
        assert len(all_nodes) == cora_small.num_nodes
        assert len(np.unique(all_nodes)) == cora_small.num_nodes

    def test_subgraph_labels_match_global(self, cora_small):
        pr = louvain_partition(cora_small, 3, np.random.default_rng(2))
        for part, nodes in zip(pr.parts, pr.node_maps):
            np.testing.assert_array_equal(part.y, cora_small.y[nodes])

    def test_roughly_balanced(self, cora_small):
        pr = louvain_partition(cora_small, 5, np.random.default_rng(3))
        sizes = np.array(pr.sizes())
        assert sizes.max() < 3 * sizes.min()

    def test_high_resolution_more_communities(self, cora_small):
        lo = louvain_partition(cora_small, 3, np.random.default_rng(4), resolution=0.5)
        hi = louvain_partition(cora_small, 3, np.random.default_rng(4), resolution=20.0)
        assert hi.num_communities > lo.num_communities

    def test_more_parties_than_communities_splits(self):
        g = load_dataset("cora", seed=0, scale=0.1)
        pr = louvain_partition(g, 50, np.random.default_rng(0), resolution=0.1)
        assert pr.num_parties == 50

    def test_invalid_party_count(self, cora_small):
        with pytest.raises(ValueError):
            louvain_partition(cora_small, 0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            louvain_partition(cora_small, cora_small.num_nodes + 1, np.random.default_rng(0))


class TestRandomPartition:
    def test_counts(self, cora_small):
        pr = random_partition(cora_small, 6, np.random.default_rng(0))
        assert pr.num_parties == 6
        assert sum(pr.sizes()) == cora_small.num_nodes

    def test_no_empty_parties(self, cora_small):
        pr = random_partition(cora_small, 10, np.random.default_rng(1))
        assert all(s > 0 for s in pr.sizes())

    def test_no_empty_parties_when_fix_up_steals_a_last_node(self):
        # 271 nodes into 135 parties: the one-pass fix-up alone empties
        # another party here, and building its subgraph then fails.
        g = load_dataset("cora", seed=0, scale=0.1)
        pr = random_partition(g, 135, np.random.default_rng(0))
        assert pr.num_parties == 135
        assert min(pr.sizes()) >= 1
        assert sum(pr.sizes()) == g.num_nodes


class TestNonIIDMetrics:
    def test_louvain_more_noniid_than_random(self, cora_small):
        rng = np.random.default_rng(0)
        louvain = louvain_partition(cora_small, 5, rng)
        rand = random_partition(cora_small, 5, rng)
        assert label_divergence(louvain.parts) > 3 * label_divergence(rand.parts)

    def test_label_distribution_normalized(self, cora_small):
        pr = louvain_partition(cora_small, 3, np.random.default_rng(0))
        for p in pr.parts:
            assert label_distribution(p).sum() == pytest.approx(1.0)

    def test_party_label_matrix_shape(self, cora_small):
        pr = louvain_partition(cora_small, 4, np.random.default_rng(0))
        mat = party_label_matrix(pr.parts)
        assert mat.shape == (4, cora_small.num_classes)
        assert mat.sum() == cora_small.num_nodes

    def test_party_label_matrix_empty_rejected(self):
        with pytest.raises(ValueError):
            party_label_matrix([])

    def test_divergence_zero_single_party(self, cora_small):
        assert label_divergence([cora_small]) == 0.0

    def test_divergence_max_for_disjoint(self):
        g1 = load_dataset("cora", seed=0, scale=0.1)
        # Build two synthetic parties with disjoint labels.
        a = subgraph(g1, np.flatnonzero(g1.y == 0))
        b = subgraph(g1, np.flatnonzero(g1.y == 1))
        assert label_divergence([a, b]) == pytest.approx(np.log(2), rel=1e-6)

    def test_feature_mean_distance_positive(self, cora_small):
        pr = louvain_partition(cora_small, 4, np.random.default_rng(0))
        assert feature_mean_distance(pr.parts) > 0

    def test_feature_mean_distance_single(self, cora_small):
        assert feature_mean_distance([cora_small]) == 0.0

    def test_missing_classes_counts(self, cora_small):
        pr = louvain_partition(cora_small, 5, np.random.default_rng(0))
        missing = missing_classes_per_party(pr.parts)
        assert len(missing) == 5
        assert all(0 <= m < cora_small.num_classes for m in missing)

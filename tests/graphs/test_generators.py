"""Tests for the DC-SBM, feature generator, and dataset twins."""

import numpy as np
import pytest

from repro.graphs import (
    DATASET_STATS,
    class_conditional_features,
    dc_sbm,
    load_dataset,
    synthetic_citation_graph,
)
from repro.graphs.features import feature_sparsity
from repro.graphs.sbm import edge_homophily
from repro.graphs.splits import semi_supervised_split, split_sizes


class TestDCSBM:
    def test_shapes_and_labels(self):
        adj, labels = dc_sbm(np.array([30, 30, 40]), 0.2, 0.01, np.random.default_rng(0))
        assert adj.shape == (100, 100)
        np.testing.assert_array_equal(np.bincount(labels), [30, 30, 40])

    def test_symmetric_no_self_loops(self):
        adj, _ = dc_sbm(np.array([50, 50]), 0.1, 0.01, np.random.default_rng(1))
        adj = adj.to_scipy()
        assert abs(adj - adj.T).sum() == 0
        assert adj.diagonal().sum() == 0

    def test_binary_entries(self):
        adj, _ = dc_sbm(np.array([40, 40]), 0.3, 0.05, np.random.default_rng(2))
        assert set(np.unique(adj.data)) <= {1.0}

    def test_homophily_when_p_in_dominates(self):
        adj, labels = dc_sbm(np.array([60, 60, 60]), 0.2, 0.005, np.random.default_rng(3))
        assert edge_homophily(adj, labels) > 0.7

    def test_no_homophily_when_equal(self):
        adj, labels = dc_sbm(
            np.array([60, 60]), 0.05, 0.05, np.random.default_rng(4), degree_exponent=None
        )
        # Two equal blocks, equal probs: ~half edges intra.
        assert 0.3 < edge_homophily(adj, labels) < 0.7

    def test_degree_correction_adds_tail(self):
        rng = np.random.default_rng(5)
        adj_dc, _ = dc_sbm(np.array([300]), 0.05, 0.0, rng, degree_exponent=2.2)
        adj_flat, _ = dc_sbm(np.array([300]), 0.05, 0.0, np.random.default_rng(5), degree_exponent=None)
        deg_dc = np.asarray(adj_dc.to_scipy().sum(axis=1)).ravel()
        deg_flat = np.asarray(adj_flat.to_scipy().sum(axis=1)).ravel()
        assert deg_dc.std() > deg_flat.std()

    def test_zero_p_out_disconnects_blocks(self):
        adj, labels = dc_sbm(np.array([30, 30]), 0.3, 0.0, np.random.default_rng(6))
        assert edge_homophily(adj, labels) == 1.0

    def test_reproducible(self):
        a1, _ = dc_sbm(np.array([40, 40]), 0.1, 0.02, np.random.default_rng(7))
        a2, _ = dc_sbm(np.array([40, 40]), 0.1, 0.02, np.random.default_rng(7))
        assert abs(a1.to_scipy() - a2.to_scipy()).sum() == 0

    def test_rejects_bad_probs(self):
        with pytest.raises(ValueError):
            dc_sbm(np.array([10, 10]), 0.1, 0.5, np.random.default_rng(0))

    def test_rejects_zero_block(self):
        with pytest.raises(ValueError):
            dc_sbm(np.array([10, 0]), 0.1, 0.05, np.random.default_rng(0))

    def test_empty_graph_when_p_zero(self):
        adj, _ = dc_sbm(np.array([10, 10]), 0.0, 0.0, np.random.default_rng(0))
        assert adj.nnz == 0
        assert np.isnan(edge_homophily(adj, np.zeros(20, dtype=int)))


class TestFeatures:
    def test_shape(self):
        labels = np.random.default_rng(0).integers(0, 4, 50)
        x = class_conditional_features(labels, 200, np.random.default_rng(0))
        assert x.shape == (50, 200)

    def test_sparse(self):
        labels = np.zeros(30, dtype=int)
        x = class_conditional_features(labels, 500, np.random.default_rng(1), words_per_node=10)
        assert feature_sparsity(x) > 0.9

    def test_row_normalized(self):
        labels = np.random.default_rng(2).integers(0, 3, 40)
        x = class_conditional_features(labels, 100, np.random.default_rng(2)).toarray()
        sums = x.sum(axis=1)
        np.testing.assert_allclose(sums[sums > 0], 1.0)

    def test_unnormalized_binary(self):
        labels = np.zeros(20, dtype=int)
        x = class_conditional_features(
            labels, 100, np.random.default_rng(3), row_normalize=False
        )
        assert set(np.unique(x.toarray())) <= {0.0, 1.0}

    def test_class_signal_separates_means(self):
        rng = np.random.default_rng(4)
        labels = np.repeat([0, 1], 100)
        x = class_conditional_features(labels, 300, rng, class_signal=0.9).toarray()
        mu0 = x[labels == 0].mean(axis=0)
        mu1 = x[labels == 1].mean(axis=0)
        separated = np.linalg.norm(mu0 - mu1)
        x_noise = class_conditional_features(
            labels, 300, np.random.default_rng(5), class_signal=0.0
        ).toarray()
        n0 = x_noise[labels == 0].mean(axis=0)
        n1 = x_noise[labels == 1].mean(axis=0)
        assert separated > 2 * np.linalg.norm(n0 - n1)

    def test_invalid_signal(self):
        with pytest.raises(ValueError):
            class_conditional_features(np.zeros(3, dtype=int), 10, np.random.default_rng(0), class_signal=2.0)

    def test_invalid_words(self):
        with pytest.raises(ValueError):
            class_conditional_features(np.zeros(3, dtype=int), 10, np.random.default_rng(0), words_per_node=0)

    def test_rejects_2d_labels(self):
        with pytest.raises(ValueError):
            class_conditional_features(np.zeros((3, 2), dtype=int), 10, np.random.default_rng(0))


class TestDatasets:
    def test_all_five_registered(self):
        assert set(DATASET_STATS) == {"cora", "citeseer", "computer", "photo", "coauthor-cs"}

    def test_table2_statistics(self):
        s = DATASET_STATS["cora"]
        assert (s.nodes, s.edges, s.classes, s.features) == (2708, 5429, 7, 1433)
        s = DATASET_STATS["coauthor-cs"]
        assert (s.nodes, s.classes, s.features) == (18333, 15, 6805)

    def test_cora_twin_counts(self):
        g = load_dataset("cora", seed=0)
        assert g.num_nodes == 2708
        assert g.num_classes == 7
        assert g.num_features == 1433
        # Edge count is stochastic (Poisson) but should be within 15%.
        assert abs(g.num_edges - 5429) / 5429 < 0.15

    def test_scale_reduces_size(self):
        g = load_dataset("citeseer", seed=0, scale=0.25)
        assert g.num_nodes == pytest.approx(3312 * 0.25, rel=0.05)
        assert g.num_features == 3703  # feature dim preserved

    def test_homophilous(self):
        g = load_dataset("cora", seed=1, scale=0.5)
        assert edge_homophily(g.adj, g.y) > 0.6

    def test_split_ratios(self):
        g = load_dataset("cora", seed=0)
        tr, va, te = split_sizes(g)
        n = g.num_nodes
        assert tr <= 0.03 * n  # ~1% with per-class floor
        assert va == pytest.approx(0.2 * n, rel=0.1)
        assert te == pytest.approx(0.2 * n, rel=0.1)

    def test_split_disjoint(self):
        g = load_dataset("photo", seed=0, scale=0.2)
        assert not np.any(g.train_mask & g.val_mask)
        assert not np.any(g.train_mask & g.test_mask)
        assert not np.any(g.val_mask & g.test_mask)

    def test_every_class_has_train_node(self):
        g = load_dataset("citeseer", seed=0, scale=0.3)
        assert set(np.unique(g.y[g.train_mask])) == set(range(g.num_classes))

    def test_no_split_option(self):
        g = load_dataset("cora", seed=0, scale=0.2, split=False)
        assert g.train_mask is None

    def test_seed_changes_graph(self):
        g1 = load_dataset("cora", seed=0, scale=0.2)
        g2 = load_dataset("cora", seed=1, scale=0.2)
        assert abs(g1.adj.to_scipy() - g2.adj.to_scipy()).sum() > 0

    def test_same_seed_reproduces(self):
        g1 = load_dataset("cora", seed=3, scale=0.2)
        g2 = load_dataset("cora", seed=3, scale=0.2)
        assert abs(g1.adj.to_scipy() - g2.adj.to_scipy()).sum() == 0
        np.testing.assert_array_equal(g1.x.toarray(), g2.x.toarray())
        np.testing.assert_array_equal(g1.train_mask, g2.train_mask)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            load_dataset("pubmed")

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            load_dataset("cora", scale=0.0)

    def test_structural_invariants(self):
        load_dataset("computer", seed=0, scale=0.1).validate()


class TestSplits:
    def test_ratios_must_be_sane(self):
        g = load_dataset("cora", seed=0, scale=0.2, split=False)
        with pytest.raises(ValueError):
            semi_supervised_split(g, np.random.default_rng(0), train_ratio=0.5, val_ratio=0.5, test_ratio=0.5)

    def test_negative_ratio_rejected(self):
        g = load_dataset("cora", seed=0, scale=0.2, split=False)
        with pytest.raises(ValueError):
            semi_supervised_split(g, np.random.default_rng(0), train_ratio=-0.1)

    def test_split_sizes_requires_masks(self):
        g = load_dataset("cora", seed=0, scale=0.2, split=False)
        with pytest.raises(ValueError):
            split_sizes(g)

    def test_stratification(self):
        g = load_dataset("cora", seed=0, scale=0.5, split=False)
        semi_supervised_split(g, np.random.default_rng(0), train_ratio=0.1)
        for c in range(g.num_classes):
            class_total = (g.y == c).sum()
            class_train = (g.y[g.train_mask] == c).sum()
            if class_total >= 10:
                assert class_train == pytest.approx(0.1 * class_total, abs=2)

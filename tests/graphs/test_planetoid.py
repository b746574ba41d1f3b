"""Tests for the raw Planetoid-format loader (offline real-data path)."""

import numpy as np
import pytest

from repro.graphs.planetoid import load_planetoid, write_planetoid_fixture


@pytest.fixture()
def fixture_dir(tmp_path):
    return write_planetoid_fixture(str(tmp_path), name="tiny", rng=np.random.default_rng(0))


class TestLoadPlanetoid:
    def test_basic_shape(self, fixture_dir):
        g = load_planetoid(fixture_dir, "tiny")
        assert g.num_nodes == 40
        assert g.num_features == 12
        assert g.num_classes == 3
        g.validate()

    def test_features_reordered_by_test_index(self, tmp_path):
        # Shuffled vs unshuffled test.index must load identical features
        # for the same underlying nodes.
        rng = lambda: np.random.default_rng(5)
        a = write_planetoid_fixture(str(tmp_path / "a"), rng=rng(), shuffle_test=True)
        b = write_planetoid_fixture(str(tmp_path / "b"), rng=rng(), shuffle_test=False)
        ga = load_planetoid(a, "tiny")
        gb = load_planetoid(b, "tiny")
        np.testing.assert_array_equal(ga.x.toarray(), gb.x.toarray())
        np.testing.assert_array_equal(ga.y, gb.y)

    def test_adjacency_symmetric_no_selfloops(self, fixture_dir):
        g = load_planetoid(fixture_dir, "tiny")
        adj = g.adj.to_scipy()
        assert abs(adj - adj.T).sum() == 0
        assert adj.diagonal().sum() == 0

    def test_ring_edges_present(self, fixture_dir):
        g = load_planetoid(fixture_dir, "tiny")
        for i in range(g.num_nodes):
            assert g.adj.to_scipy()[i, (i + 1) % g.num_nodes] == 1.0

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_planetoid(str(tmp_path), "nothere")

    def test_pipeline_compatible(self, fixture_dir):
        # The loaded graph runs through split → partition → training.
        from repro.federated import FederatedTrainer, TrainerConfig
        from repro.graphs import louvain_partition, semi_supervised_split

        g = load_planetoid(fixture_dir, "tiny")
        semi_supervised_split(g, np.random.default_rng(0), train_ratio=0.2)
        parts = louvain_partition(g, 2, np.random.default_rng(0)).parts
        hist = FederatedTrainer(
            parts, TrainerConfig(max_rounds=2, patience=5, hidden=8), seed=0
        ).run()
        assert len(hist) == 2

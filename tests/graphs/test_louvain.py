"""Louvain on the CSR arrays: exactness against networkx and pinned cuts.

``louvain_communities`` must return what networkx 3.6.1's
``louvain_communities`` returns on the graph built from
``sp.triu(adj, 1)``: the same sets, in the same list order, each
iterating in the same order.  The oracle tests compare against networkx
(a dev dependency only); the pinned digests keep the cut fixed without it.
"""

import gc
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from repro.graphs import load_dataset, louvain_partition
from repro.graphs import partition as partition_mod
from repro.graphs.partition import louvain_communities

SRC = Path(__file__).resolve().parents[2] / "src"

TWINS = [
    ("cora", 0.15),
    ("citeseer", 0.15),
    ("computer", 0.03),
    ("photo", 0.05),
    ("coauthor-cs", 0.05),
]


def _nx_communities(adj, resolution, seed):
    """The reference: networkx Louvain on the unweighted upper triangle."""
    nx = pytest.importorskip("networkx")
    adj = adj.to_scipy() if hasattr(adj, "to_scipy") else adj
    coo = sp.coo_matrix(sp.triu(adj, k=1))
    g = nx.Graph()
    g.add_nodes_from(range(adj.shape[0]))
    g.add_edges_from(zip(coo.row.tolist(), coo.col.tolist()))
    return nx.community.louvain_communities(g, resolution=resolution, seed=seed)


def _assert_same(adj, resolution, seed):
    ours = louvain_communities(adj, resolution=resolution, seed=seed)
    ref = _nx_communities(adj, resolution, seed)
    # Lists of lists compare list order and each set's iteration order.
    assert [list(c) for c in ours] == [list(c) for c in ref]


def _cycle(n=120):
    u = np.arange(n)
    a = sp.coo_matrix((np.ones(n), (u, (u + 1) % n)), shape=(n, n))
    return sp.csr_matrix(a + a.T)


def _grid(side=14):
    path = sp.diags([np.ones(side - 1)], [1], shape=(side, side))
    path = path + path.T
    eye = sp.identity(side)
    return sp.csr_matrix(sp.kron(path, eye) + sp.kron(eye, path))


def _cliques(count=12, size=6):
    block = np.ones((size, size)) - np.eye(size)
    return sp.csr_matrix(sp.block_diag([block] * count))


REGULAR = {"cycle": _cycle, "grid": _grid, "cliques": _cliques}


@pytest.fixture(scope="module", params=TWINS, ids=[t[0] for t in TWINS])
def twin(request):
    name, scale = request.param
    return load_dataset(name, seed=0, scale=scale)


class TestOracle:
    @pytest.mark.parametrize("resolution", [0.5, 1.0, 20.0])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_twins_match_networkx(self, twin, resolution, seed):
        _assert_same(twin.adj, resolution, seed)

    # fedbench's two workloads, at their scales.
    @pytest.mark.parametrize("name,scale", [("cora", 1.0), ("coauthor-cs", 0.25)])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_fedbench_scale_twins_match_networkx(self, name, scale, seed):
        _assert_same(load_dataset(name, seed=seed, scale=scale).adj, 1.0, seed)

    # Regular graphs: many candidates tie on their gain, so the sweep's
    # tie order (the first best candidate in neighbour order) decides.
    @pytest.mark.parametrize("resolution", [0.5, 1.0, 20.0])
    @pytest.mark.parametrize("graph", ["cycle", "grid", "cliques"])
    def test_tie_heavy_regular_graphs_match_networkx(self, graph, resolution):
        adj = REGULAR[graph]()
        for seed in (0, 3):
            _assert_same(adj, resolution, seed)

    # At resolution 0 a gain does not depend on Stot; below 0 it rises
    # with Stot, so the sweep skips no visit there (with skips, the -0.5
    # case parts from networkx).
    @pytest.mark.parametrize("resolution", [0.0, -0.5])
    def test_non_positive_resolution_matches_networkx(self, resolution):
        _assert_same(load_dataset("cora", seed=0, scale=0.3).adj, resolution, 0)

    def test_edgeless_graph(self):
        adj = sp.csr_matrix((6, 6))
        assert louvain_communities(adj, seed=0) == [{u} for u in range(6)]
        _assert_same(adj, 1.0, 0)

    def test_only_self_loops_is_edgeless(self):
        _assert_same(sp.identity(5, format="csr"), 1.0, 3)

    def test_isolated_nodes(self):
        g = load_dataset("cora", seed=1, scale=0.1)
        adj = sp.block_diag([g.adj.to_scipy(), sp.csr_matrix((7, 7))], format="csr")
        for seed in (0, 5):
            _assert_same(adj, 1.0, seed)

    def test_self_loops_and_duplicate_entries(self):
        g = load_dataset("citeseer", seed=2, scale=0.1)
        coo = g.adj.to_scipy().tocoo()
        n = g.num_nodes
        diag = np.arange(0, n, 3)
        row = np.concatenate([coo.row, coo.row[:200], diag])
        col = np.concatenate([coo.col, coo.col[:200], diag])
        order = np.argsort(row, kind="stable")
        indptr = np.concatenate(([0], np.cumsum(np.bincount(row, minlength=n))))
        # Built from raw arrays, the CSR keeps the duplicates and the diagonal.
        adj = sp.csr_matrix((np.ones(len(row)), col[order], indptr), shape=(n, n))
        assert adj.nnz == len(row)
        for seed in (0, 4):
            _assert_same(adj, 1.0, seed)
            _assert_same(adj, 20.0, seed)

    def test_unsorted_csr_indices(self):
        g = load_dataset("photo", seed=0, scale=0.04)
        adj = g.adj.to_scipy().copy()
        rng = np.random.default_rng(0)
        for r in range(adj.shape[0]):
            lo, hi = adj.indptr[r], adj.indptr[r + 1]
            adj.indices[lo:hi] = rng.permutation(adj.indices[lo:hi])
        adj.has_sorted_indices = False
        for seed in (0, 2):
            _assert_same(adj, 1.0, seed)

    def test_split_path_node_maps(self, monkeypatch):
        # 28 communities for 50 parties: the split path permutes each
        # community's elements in set iteration order.
        g = load_dataset("cora", seed=0, scale=0.1)
        ours = louvain_partition(g, 50, np.random.default_rng(0), resolution=0.1)
        assert ours.num_communities < 50
        monkeypatch.setattr(partition_mod, "louvain_communities", _nx_communities)
        ref = louvain_partition(g, 50, np.random.default_rng(0), resolution=0.1)
        assert ref.num_communities == ours.num_communities
        assert len(ours.node_maps) == len(ref.node_maps)
        for a, b in zip(ours.node_maps, ref.node_maps):
            np.testing.assert_array_equal(a, b)


def _node_maps_digest(pr):
    h = hashlib.sha256()
    h.update(np.int64(pr.num_communities).tobytes())
    for nodes in pr.node_maps:
        h.update(np.int64(len(nodes)).tobytes())
        h.update(np.asarray(nodes, dtype=np.int64).tobytes())
    return h.hexdigest()


# (twin, scale, parties, seed, resolution) -> sha256 of the node maps,
# recorded with the networkx-backed partitioner.  The last two cases take
# the split path (fewer communities than parties).
PINNED = [
    ("cora", 0.3, 5, 0, 1.0, "1e1c612ec4c953d718a34e9e3a45bb65e12ab96d6369b96a288cd1b6ccebb2ea"),
    ("citeseer", 0.2, 3, 1, 0.5, "62f5952eaf7865b6d28578bde3844d410106694046f440d27f0dda5a616412ec"),
    ("photo", 0.05, 7, 2, 20.0, "5fc083c4a1cbc4ce4b48f068afdd9e88e91675878896d24d140fe64de87e50d0"),
    ("coauthor-cs", 0.05, 10, 3, 1.0, "3eb26866213cacb24fd7a3ddead04b4e253bc3b3fde7e61a50a94c6e14221ce2"),
    ("cora", 0.1, 50, 0, 0.1, "2c08c24450b002b70e240652c92d7cf775386fcddea3409392e0dc7a7cc1e133"),
    ("coauthor-cs", 0.05, 20, 4, 1.0, "4d946bce9a3e6c98d3db935dda75c5bdc6dd83f7af6f8c6dd6da8c53558b6e28"),
]


@pytest.mark.parametrize("name,scale,parties,seed,resolution,digest", PINNED)
def test_pinned_node_maps(name, scale, parties, seed, resolution, digest):
    g = load_dataset(name, seed=seed, scale=scale)
    pr = louvain_partition(g, parties, np.random.default_rng(seed), resolution=resolution)
    assert _node_maps_digest(pr) == digest


def test_runtime_does_not_import_networkx():
    code = (
        "import sys\n"
        "import repro.graphs, repro.experiments, repro.train\n"
        "assert 'networkx' not in sys.modules, 'networkx imported'\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr


class TestCollectorPause:
    """The sweep runs with the cyclic GC paused, and leaves it as it was."""

    @pytest.fixture
    def adj(self):
        return load_dataset("cora", seed=0, scale=0.05).adj

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_state_restored(self, adj, enabled):
        seen = []
        sweep = partition_mod._one_level

        def watched(*args):
            seen.append(gc.isenabled())
            return sweep(*args)

        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            with pytest.MonkeyPatch.context() as m:
                m.setattr(partition_mod, "_one_level", watched)
                louvain_communities(adj, seed=0)
            assert seen and not any(seen)
            assert gc.isenabled() == enabled
        finally:
            (gc.enable if was else gc.disable)()

    def test_state_restored_on_error(self, adj, monkeypatch):
        def fail(*args):
            raise RuntimeError("sweep failed")

        monkeypatch.setattr(partition_mod, "_one_level", fail)
        assert gc.isenabled()
        with pytest.raises(RuntimeError, match="sweep failed"):
            louvain_communities(adj, seed=0)
        assert gc.isenabled()

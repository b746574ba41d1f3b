"""The NumPy graph builders against scipy, byte for byte.

A run builds its adjacency, features, propagation operators and every
party's arrays in NumPy, without ``scipy.sparse``.  Each array must be
what the ``scipy.sparse`` code they replaced built: the same ``data``,
``indices`` and ``indptr``, dtypes included, so the training digests
cannot move.  Each transposed product ``Sᵀ @ G``, read from the forward
arrays, must be byte for byte the product through the transposed copy
``S.T.tocsr()`` that backward passes once used.  scipy is the oracle here
and only here.
The twin's raw draws (the sampled node pairs and words) are recorded as
the generator assembles them, and the oracle assembles the same draws
with scipy.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.graphs import Graph, features, load_dataset, louvain_partition, sbm
from repro.graphs.csr import upper_triangle
from repro.graphs.laplacian import normalized_adjacency, row_normalized_adjacency

#: Every Table-2 twin at the smoke scale, and fedbench's three workloads.
TWINS = [(name, 0.12) for name in ("cora", "citeseer", "computer", "photo", "coauthor-cs")] + [
    ("cora", 1.0),
    ("coauthor-cs", 0.25),
    ("photo", 0.5),
]


def old_adjacency(rows, cols, n):
    adj = sp.coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    adj = adj + adj.T
    adj = (adj > 0).astype(np.float64).tocsr()
    adj.setdiag(0)
    adj.eliminate_zeros()
    return adj


def old_features(rows, words, shape, row_normalize):
    x = sp.csr_matrix((np.ones(len(rows)), (rows, words)), shape=shape)
    x.sum_duplicates()
    k = np.diff(x.indptr)
    x.data = np.repeat(1.0 / np.maximum(k, 1).astype(np.float64), k) if row_normalize else x.data
    return x


def old_self_loops(adj):
    a = sp.csr_matrix(adj)
    diag = a.diagonal()
    if np.any(diag):
        a = (a - sp.diags(diag, offsets=0, format="csr")).tocsr()
        a.eliminate_zeros()
    return (a + sp.identity(a.shape[0], format="csr")).tocsr()


def old_s_norm(adj):
    a_hat = old_self_loops(adj)
    d = sp.diags(1.0 / np.sqrt(np.asarray(a_hat.sum(axis=1)).ravel()))
    return (d @ a_hat @ d).tocsr()


def old_mean_adj(adj):
    a_hat = old_self_loops(adj)
    return (sp.diags(1.0 / np.asarray(a_hat.sum(axis=1)).ravel()) @ a_hat).tocsr()


def old_party_features(x, nodes):
    m = sp.csr_matrix(x[nodes], copy=True)
    m.sum_duplicates()
    m.eliminate_zeros()
    return m


def assert_same(ours, want, what):
    """``ours`` (a CSRMatrix) holds exactly ``want``'s CSR arrays."""
    assert ours.shape == want.shape, what
    for name in ("data", "indices", "indptr"):
        a, b = getattr(ours, name), getattr(want, name)
        assert a.dtype == b.dtype, f"{what}.{name}: {a.dtype} != {b.dtype}"
        assert a.tobytes() == b.tobytes(), f"{what}.{name} differs"


def assert_transposed_products(ours, want, what):
    """``ours.rmatmul(g)`` is scipy's ``want.T.tocsr() @ g``, for a float32 and a float64 ``g``."""
    for dtype in (np.float32, np.float64):
        g = np.random.default_rng(0).standard_normal((want.shape[0], 5)).astype(dtype)
        ref = want.T.tocsr() @ g
        got = ours.rmatmul(g)
        assert got.dtype == ref.dtype, what
        assert got.tobytes() == ref.tobytes(), f"{what}ᵀ @ g ({np.dtype(dtype).name}) differs"


def assert_operator(ours, want, what):
    """An operator's arrays and its transposed products against scipy's."""
    assert_same(ours, want, what)
    assert_transposed_products(ours, want, what)


def assert_features(ours, want, what):
    """Features as an operator, and compacted to their active columns."""
    assert_operator(ours, want, what)
    cols = np.unique(ours.indices)
    assert_transposed_products(ours.compact_columns(cols), want[:, cols], f"{what} compacted")


def assert_graph_operators(g, adj, what):
    """S̃ and D⁻¹Â in float64 and in the graph's dtype, with transposed products."""
    s, mean = old_s_norm(adj), old_mean_adj(adj)
    assert_operator(normalized_adjacency(g.adj), s, f"{what} S̃ float64")
    assert_operator(row_normalized_adjacency(g.adj), mean, f"{what} D⁻¹Â float64")
    assert_operator(g.s_op, s.astype(g.x.dtype), f"{what} s_op")
    assert_operator(g.mean_op, mean.astype(g.x.dtype), f"{what} mean_op")


@pytest.fixture(scope="module", params=TWINS, ids=[f"{n}-{s}" for n, s in TWINS])
def twin(request):
    """A twin, the scipy oracle's adjacency and features from its draws."""
    name, scale = request.param
    draws = {}
    real_adj, real_x = sbm.symmetric_adjacency, features.bag_of_words
    with pytest.MonkeyPatch.context() as m:
        m.setattr(sbm, "symmetric_adjacency",
                  lambda *a: draws.setdefault("adj", a) and real_adj(*a))
        m.setattr(features, "bag_of_words", lambda *a: draws.setdefault("x", a) and real_x(*a))
        g = load_dataset(name, seed=0, scale=scale)
    return g, old_adjacency(*draws["adj"]), old_features(*draws["x"]).astype(g.x.dtype)


class TestTwins:
    def test_adjacency_and_features(self, twin):
        g, adj, x = twin
        assert_same(g.adj, adj, "adj")
        assert_features(g.x, x, "x")

    def test_operators(self, twin):
        g, adj, _ = twin
        assert_graph_operators(g, adj, "graph")

    def test_louvain_stream(self, twin):
        g, adj, _ = twin
        coo = sp.triu(adj, k=1, format="coo")
        for ours, want in zip(upper_triangle(g.adj), (coo.row, coo.col)):
            assert ours.dtype == want.dtype and ours.tobytes() == want.tobytes()

    def test_party_arrays(self, twin):
        g, adj, x = twin
        pr = louvain_partition(g, 5, np.random.default_rng(0))
        for i, (part, nodes) in enumerate(zip(pr.parts, pr.node_maps)):
            sub = adj[nodes][:, nodes].tocsr()
            assert_same(part.adj, sub, f"party {i} adj")
            assert_features(part.x, old_party_features(x, nodes), f"party {i} x")
            assert_graph_operators(part, sub, f"party {i}")


def test_isolated_nodes_and_empty_rows():
    # Nodes 0, 3 and 6 have no edges, rows 2 and 6 no features and
    # column 4 no node; a duplicated, unsorted scipy input is summed and
    # sorted on the way in.
    rng = np.random.default_rng(0)
    x = (rng.random((7, 5)) < 0.5) * rng.standard_normal((7, 5))
    x[[2, 6]] = 0.0
    x[:, 4] = 0.0
    rows, cols = np.array([1, 2, 4, 5, 1, 2, 5]), np.array([2, 1, 5, 4, 2, 1, 4])
    adj = sp.csr_matrix((np.ones(7), (rows, cols)), shape=(7, 7))
    g = Graph(x=x, adj=sp.coo_matrix((np.ones(7), (rows, cols)), shape=(7, 7)),
              y=np.zeros(7, dtype=int), num_classes=1)
    assert_same(g.adj, adj, "adj")
    assert_features(g.x, sp.csr_matrix(x), "x")
    assert_graph_operators(g, adj, "graph")
    nodes = np.array([0, 2, 3, 6])
    sub = g.adj.take(nodes, nodes)
    assert_same(sub, adj[nodes][:, nodes].tocsr(), "isolated party adj")
    assert_graph_operators(Graph(x=x[nodes], adj=sub, y=np.zeros(4, dtype=int), num_classes=1),
                           adj[nodes][:, nodes].tocsr(), "isolated party")

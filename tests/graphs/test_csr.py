"""CSRMatrix container: construction, reverse caching, conversion metering.

The headline regression here is the spmm transpose-cache bug: the old
``spmm`` claimed to cache ``S.T.tocsr()`` for backward but the closure
variable was fresh on every forward call, so every training step paid a
full O(nnz) sparse conversion per layer.  These tests pin the fixed
contract — *exactly one* transpose conversion per graph operator across
an entire multi-round training run.
"""

import copy
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from repro.graphs import CSRMatrix, Graph
from repro.graphs.csr import (
    add_scaled_rows,
    reset_transpose_conversion_count,
    transpose_conversion_count,
    unique,
)
from repro.nn import Adam, cross_entropy


def _random_csr(n=30, density=0.2, seed=0):
    return sp.random(n, n, density=density, random_state=seed, format="csr")


def _small_graph(n=24, classes=3, feats=6, seed=0):
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, n, 3 * n)
    cols = rng.integers(0, n, 3 * n)
    keep = rows != cols
    a = sp.coo_matrix(
        (np.ones(keep.sum()), (rows[keep], cols[keep])), shape=(n, n)
    ).tocsr()
    a = a + a.T
    a.data[:] = 1.0
    return Graph(
        x=rng.standard_normal((n, feats)),
        adj=a,
        y=rng.integers(0, classes, n),
        num_classes=classes,
        train_mask=np.ones(n, dtype=bool),
    )


class TestConstruction:
    def test_from_scipy_shares_values(self):
        m = _random_csr()
        c = CSRMatrix.from_scipy(m)
        assert c.shape == m.shape and c.nnz == m.nnz
        assert c.data is m.data  # no copy for CSR input
        np.testing.assert_array_equal(c.toarray(), m.toarray())

    def test_from_scipy_accepts_other_formats(self):
        m = _random_csr().tocoo()
        c = CSRMatrix.from_scipy(m)
        np.testing.assert_array_equal(c.toarray(), m.toarray())

    def test_rejects_dense(self):
        with pytest.raises(TypeError):
            CSRMatrix.from_scipy(np.eye(3))

    def test_rejects_non_training_dtypes(self):
        for dtype in (np.float16, np.int64):
            with pytest.raises(ValueError, match="float32 or float64"):
                CSRMatrix.from_scipy(sp.identity(3, format="csr", dtype=dtype))

    def test_astype_shares_structure(self):
        c = CSRMatrix.from_scipy(_random_csr())
        assert c.astype(np.float64) is c
        f = c.astype(np.float32)
        assert f.indices is c.indices and f.indptr is c.indptr
        assert f.dtype == np.float32 and f.rev.dtype == np.float32 and f.rev.rev is f
        np.testing.assert_array_equal(f.toarray(), c.toarray().astype(np.float32))
        np.testing.assert_array_equal(f.rev.toarray(), f.toarray().T)

    def test_to_scipy_roundtrip_is_cached_view(self):
        c = CSRMatrix.from_scipy(_random_csr())
        assert c.to_scipy() is c.to_scipy()

    def test_deepcopy_is_independent(self):
        c = CSRMatrix.from_scipy(_random_csr())
        c2 = copy.deepcopy(c)
        assert c2.data is not c.data
        np.testing.assert_array_equal(c2.toarray(), c.toarray())


class TestReverse:
    def test_rev_is_bitwise_transpose(self):
        m = _random_csr(seed=3)
        c = CSRMatrix.from_scipy(m)
        ref = m.T.tocsr()
        assert np.array_equal(c.rev.data, ref.data)
        assert np.array_equal(c.rev.indices, ref.indices)
        assert np.array_equal(c.rev.indptr, ref.indptr)

    def test_rev_of_rev_is_original(self):
        c = CSRMatrix.from_scipy(_random_csr())
        assert c.rev.rev is c

    def test_eager_reverse_counts_one_conversion(self):
        m = _random_csr()
        reset_transpose_conversion_count()
        c = CSRMatrix.from_scipy(m)
        assert transpose_conversion_count() == 1
        # Repeated access never converts again.
        for _ in range(5):
            _ = c.rev
            _ = c.T
        assert transpose_conversion_count() == 1

    def test_lazy_reverse_skipped_for_forward_only(self):
        m = _random_csr()
        reset_transpose_conversion_count()
        c = CSRMatrix.from_scipy(m, build_reverse=False)
        c.matmul(np.ones((m.shape[1], 2)))
        assert transpose_conversion_count() == 0
        _ = c.rev
        assert transpose_conversion_count() == 1

    def test_matmul_and_rev_matmul_match_scipy(self):
        m = _random_csr(seed=5)
        c = CSRMatrix.from_scipy(m)
        x = np.random.default_rng(0).standard_normal((m.shape[1], 4))
        g = np.random.default_rng(1).standard_normal((m.shape[0], 4))
        assert np.array_equal(c.matmul(x), m @ x)
        assert np.array_equal(c.rev.matmul(g), m.T.tocsr() @ g)


class TestTransposeCacheRegression:
    """Exactly one transpose conversion per operator across a multi-round run.

    Every model's first layer multiplies the sparse features ``graph.x``,
    so a graph's features add one reverse (Xᵀ, for the weight gradient)
    to its propagation operators' reverses.
    """

    def _train(self, model_name, graph, steps=6):
        from repro.gnn import GCN, SAGE

        cls = {"gcn": GCN, "sage": SAGE}[model_name]
        model = cls(
            graph.num_features,
            graph.num_classes,
            hidden=8,
            rng=np.random.default_rng(0),
        )
        opt = Adam(model.parameters(), lr=0.01)
        for _ in range(steps):
            opt.zero_grad()
            cross_entropy(model(graph), graph.y, graph.train_mask).backward()
            opt.step()

    def test_gcn_multi_round_converts_once(self):
        graph = _small_graph()
        reset_transpose_conversion_count()
        self._train("gcn", graph)
        # One conversion each for graph.s_op's and graph.x's reverse-CSR
        # — not one per layer per forward call as the pre-substrate spmm paid.
        assert transpose_conversion_count() == 2

    def test_sage_multi_round_converts_once(self):
        graph = _small_graph(seed=1)
        reset_transpose_conversion_count()
        self._train("sage", graph)
        # graph.mean_op's reverse and graph.x's.
        assert transpose_conversion_count() == 2

    def test_two_operators_convert_twice(self):
        graph = _small_graph(seed=2)
        reset_transpose_conversion_count()
        self._train("gcn", graph)
        self._train("sage", graph)
        # s_op and mean_op once each; the second model reuses x's reverse.
        assert transpose_conversion_count() == 3

    def test_fresh_graphs_convert_independently(self):
        reset_transpose_conversion_count()
        for seed in range(3):
            self._train("gcn", _small_graph(seed=seed), steps=2)
        assert transpose_conversion_count() == 6

    def test_orthogcn_builds_both_reverses_once(self):
        # OrthoGCN propagates through graph.s_op and projects graph.x:
        # two reverse CSRs, both built by the first forward, none in backward.
        from repro.gnn import OrthoGCN

        graph = _small_graph(seed=3)
        model = OrthoGCN(
            graph.num_features, graph.num_classes, hidden=8, rng=np.random.default_rng(0)
        )
        opt = Adam(model.parameters(), lr=0.01)
        reset_transpose_conversion_count()
        for _ in range(6):
            opt.zero_grad()
            loss = cross_entropy(model(graph), graph.y, graph.train_mask)
            assert transpose_conversion_count() == 2
            loss.backward()
            assert transpose_conversion_count() == 2
            opt.step()


class TestAddScaledRows:
    """``add_scaled_rows`` is ``acc[rows] += values * scale``, bit for bit."""

    @pytest.mark.parametrize("seed", range(20))
    def test_equals_the_numpy_scatter(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 60))
        shape = (n,) if seed % 4 == 0 else (n, int(rng.integers(1, 9)))
        acc = rng.standard_normal(shape)
        rows = np.unique(rng.integers(0, n, size=int(rng.integers(0, n + 1)))).astype(np.int32)
        values = rng.standard_normal((len(rows),) + shape[1:])
        values.setflags(write=False)  # uploads arrive as read-only views
        scale = float(rng.random())
        want = acc.copy()
        want[rows] += np.multiply(values, scale)
        add_scaled_rows(acc, rows, values, scale)
        assert acc.tobytes() == want.tobytes()

    def test_rejects_mismatched_values_and_strided_acc(self):
        acc = np.zeros((4, 3))
        with pytest.raises(ValueError, match="do not match"):
            add_scaled_rows(acc, np.array([0, 2]), np.zeros((3, 3)), 0.5)
        with pytest.raises(ValueError, match="C-contiguous"):
            add_scaled_rows(acc.T, np.array([0]), np.zeros((1, 4)), 0.5)


class TestUnique:
    """``unique`` is ``np.unique`` for integer arrays, by one sort."""

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("size", [0, 1, 2, 50])
    def test_equals_np_unique(self, dtype, size):
        keys = np.random.default_rng(size).integers(-5, 9, size=size).astype(dtype)
        got = unique(keys)
        assert got.dtype == keys.dtype
        assert got.tobytes() == np.unique(keys).tobytes()


class TestKernel:
    """``CSRMatrix.matmul`` calls scipy's ``csr_matvecs`` directly; it
    must stay byte-equal to ``to_scipy() @ x``, the product it replaced."""

    @staticmethod
    def operands(dtype, seed=0):
        m = sp.random(40, 30, density=0.15, random_state=seed, format="csr", dtype=dtype)
        m = sp.csr_matrix(sp.diags((np.arange(40) % 5 != 0).astype(dtype)) @ m)
        m.eliminate_zeros()  # every fifth row empty
        x = np.random.default_rng(seed).standard_normal((30, 7)).astype(dtype)
        return CSRMatrix.from_scipy(m), x

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_byte_equal_to_scipy(self, dtype):
        c, x = self.operands(dtype)
        assert np.diff(c.indptr).min() == 0
        for arg in (x, np.asfortranarray(x), x[:, ::2], x[:, 1:].astype(np.float64)):
            want = c.to_scipy() @ arg
            got = c.matmul(arg)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_out_is_overwritten(self, dtype):
        c, x = self.operands(dtype, seed=1)
        out = np.full((40, 7), np.nan, dtype)
        assert c.matmul(x, out=out) is out
        assert out.tobytes() == (c.to_scipy() @ x).tobytes()
        with pytest.raises(ValueError, match="C-contiguous"):
            c.matmul(x, out=np.empty((7, 40), dtype).T)
        with pytest.raises(ValueError, match="C-contiguous"):
            c.matmul(x, out=np.empty((40, 7), np.float16))
        with pytest.raises(ValueError, match="cannot multiply"):
            c.matmul(x[:-1])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_reverse_rows_with_offset_indptr(self, dtype):
        # A compacted reverse keeps rows `cols` of the full reverse and
        # shares its arrays, so its indptr starts wherever row cols[0] did.
        c, _ = self.operands(dtype, seed=2)
        rev, cols = c.rev, np.arange(5, 30)
        sub = CSRMatrix(rev.data, rev.indices, np.append(rev.indptr[cols], rev.indptr[-1]),
                        (len(cols), 40))
        assert sub.indptr[0] > 0
        g = np.random.default_rng(3).standard_normal((40, 5)).astype(dtype)
        want = (c.to_scipy().T.tocsr() @ g)[cols]
        assert sub.matmul(g, out=np.ones((len(cols), 5), dtype)).tobytes() == want.tobytes()
        assert sub.matmul(g).tobytes() == want.tobytes()

    def test_scipy_still_runs_the_same_kernel(self, monkeypatch):
        # If scipy's `S @ x` stops calling `_sparsetools.csr_matvecs`, the
        # byte equality above is no longer a statement about scipy's product.
        from scipy.sparse import _sparsetools

        calls = []
        real = _sparsetools.csr_matvecs
        monkeypatch.setattr(
            _sparsetools, "csr_matvecs", lambda *a: calls.append(len(a)) or real(*a)
        )
        c, x = self.operands(np.float32)
        c.to_scipy() @ x
        c.matmul(x)
        assert calls == [8, 8]

    def test_kernel_loaded_before_scipy_sparse_is_scipys(self):
        # The kernel is loaded without `scipy.sparse`; a later import of
        # the package must bind the same module, so `S @ x` and
        # `CSRMatrix.matmul` still run one function, byte for byte.
        code = """
import sys
import numpy as np
from repro.graphs import csr
assert "scipy.sparse" not in sys.modules
import scipy.sparse as sp
from scipy.sparse import _compressed, _sparsetools
assert _sparsetools is csr._sparsetools is _compressed._sparsetools
calls = []
real = _sparsetools.csr_matvecs
_sparsetools.csr_matvecs = lambda *a: calls.append(len(a)) or real(*a)
m = sp.random(40, 30, density=0.15, random_state=0, format="csr", dtype=np.float32)
x = np.random.default_rng(0).standard_normal((30, 7)).astype(np.float32)
assert (m @ x).tobytes() == csr.CSRMatrix.from_scipy(m).matmul(x).tobytes()
assert calls == [8, 8], calls
"""
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[2] / "src"))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert out.returncode == 0, out.stderr[-2000:]

    def test_missing_kernel_names_the_scipy_version(self, monkeypatch, tmp_path):
        import importlib.util
        from importlib.metadata import version

        from repro.graphs import csr

        spec = importlib.util.find_spec("scipy")
        monkeypatch.delitem(sys.modules, "scipy.sparse._sparsetools")
        monkeypatch.setattr(spec, "submodule_search_locations", [str(tmp_path)])
        monkeypatch.setattr(importlib.util, "find_spec", lambda name: spec)
        with pytest.raises(ImportError, match=f"scipy {version('scipy')} has no compiled"):
            csr._load_sparsetools()

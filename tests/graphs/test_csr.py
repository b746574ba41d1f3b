"""CSRMatrix container: construction, the transposed product, build counts.

The headline regression here is the spmm transpose-cache bug: the old
``spmm`` claimed to cache ``S.T.tocsr()`` for backward but the closure
variable was fresh on every forward call, so every training step paid a
full O(nnz) sparse conversion per layer.  These tests pin the contract
that replaced it: each graph operator is built once across an entire
multi-round training run, and no transpose is ever built — ``Sᵀ @ G``
reads ``S``'s own arrays.
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
from repro.graphs import csr as csr_mod
from repro.graphs.csr import add_scaled_rows, unique
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
        assert f.dtype == np.float32
        np.testing.assert_array_equal(f.toarray(), c.toarray().astype(np.float32))

    def test_to_scipy_roundtrip_is_cached_view(self):
        c = CSRMatrix.from_scipy(_random_csr())
        assert c.to_scipy() is c.to_scipy()

    def test_deepcopy_is_independent(self):
        c = CSRMatrix.from_scipy(_random_csr())
        c2 = copy.deepcopy(c)
        assert c2.data is not c.data
        np.testing.assert_array_equal(c2.toarray(), c.toarray())


def spy_kernel(monkeypatch, name):
    """Record the arguments of every call of scipy's kernel ``name``."""
    calls = []
    real = getattr(csr_mod._sparsetools, name)
    monkeypatch.setattr(csr_mod._sparsetools, name, lambda *a: calls.append(a) or real(*a))
    return calls


class TestReverse:
    """``rmatmul``, the reverse (transposed) product ``Sᵀ @ G``."""

    def test_rev_is_bitwise_transpose(self):
        for dtype in (np.float32, np.float64):
            m = _random_csr(seed=3).astype(dtype)
            c = CSRMatrix.from_scipy(m)
            g = np.random.default_rng(3).standard_normal((m.shape[0], 6)).astype(dtype)
            got = c.rmatmul(g)
            for want in (m.T.tocsr() @ g, m.T @ g):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_rev_of_rev_is_original(self, monkeypatch):
        # The reverse product reads the matrix's own arrays: they are Sᵀ's
        # CSC arrays, so nothing is copied or converted.
        c = CSRMatrix.from_scipy(_random_csr())
        calls = spy_kernel(monkeypatch, "csc_matvecs")
        out = np.ones((30, 2))
        assert c.rmatmul(np.ones((30, 2)), out=out) is out
        (args,) = calls
        assert args[:3] == (30, 30, 2)
        assert args[3] is c.indptr and args[4] is c.indices and args[5] is c.data
        assert args[7].base is out

    def test_holds_no_reverse(self):
        c = CSRMatrix.from_scipy(_random_csr())
        assert CSRMatrix.__slots__ == ("data", "indices", "indptr", "shape", "_scipy")
        for name in ("rev", "T", "_rev", "_build_reverse"):
            assert not hasattr(c, name)
        assert c.nbytes == c.data.nbytes + c.indices.nbytes + c.indptr.nbytes

    def test_lazy_reverse_skipped_for_forward_only(self, monkeypatch):
        # Only a backward pass runs the reverse product, once per spmm.
        from repro.autograd import Tensor, no_grad, spmm

        c = CSRMatrix.from_scipy(_random_csr())
        calls = spy_kernel(monkeypatch, "csc_matvecs")
        x = Tensor(np.ones((30, 2)), requires_grad=True)
        with no_grad():
            spmm(c, x)
        out = spmm(c, x)
        assert calls == []
        out.backward(np.ones((30, 2)))
        assert len(calls) == 1

    def test_matmul_and_rev_matmul_match_scipy(self):
        m = _random_csr(seed=5)
        c = CSRMatrix.from_scipy(m)
        x = np.random.default_rng(0).standard_normal((m.shape[1], 4))
        g = np.random.default_rng(1).standard_normal((m.shape[0], 4))
        assert np.array_equal(c.matmul(x), m @ x)
        assert np.array_equal(c.rmatmul(g), m.T.tocsr() @ g)
        with pytest.raises(ValueError, match="cannot multiply"):
            c.rmatmul(g[:-1])


class TestTransposeCacheRegression:
    """Each operator is built once across a multi-round run, by the first
    forward that needs it; no step after it and no backward pass builds a
    sparse matrix (a transpose included)."""

    @pytest.fixture(autouse=True)
    def builds(self, monkeypatch):
        self.built = 0
        real = CSRMatrix.__init__

        def init(m, *args):
            self.built += 1
            real(m, *args)

        monkeypatch.setattr(CSRMatrix, "__init__", init)

    def _train(self, model_name, graph, steps=6):
        """The sparse matrices each step's forward and backward built."""
        from repro.gnn import GCN, SAGE, OrthoGCN

        cls = {"gcn": GCN, "sage": SAGE, "ortho": OrthoGCN}[model_name]
        model = cls(
            graph.num_features,
            graph.num_classes,
            hidden=8,
            rng=np.random.default_rng(0),
        )
        opt = Adam(model.parameters(), lr=0.01)
        counts = []
        for _ in range(steps):
            opt.zero_grad()
            start = self.built
            loss = cross_entropy(model(graph), graph.y, graph.train_mask)
            forward = self.built - start
            loss.backward()
            opt.step()
            counts.append((forward, self.built - start - forward))
        return counts

    def test_gcn_multi_round_converts_once(self):
        graph = _small_graph()
        counts = self._train("gcn", graph)
        # graph.s_op, by the first forward; not once per layer per call
        # as the pre-substrate spmm paid.
        assert counts[0][0] > 0 and graph._s_op is not None
        assert counts[0][1] == 0 and set(counts[1:]) == {(0, 0)}

    def test_sage_multi_round_converts_once(self):
        graph = _small_graph(seed=1)
        counts = self._train("sage", graph)
        assert counts[0][0] > 0 and graph._mean_op is not None
        assert counts[0][1] == 0 and set(counts[1:]) == {(0, 0)}

    def test_two_operators_convert_twice(self):
        # s_op and mean_op once each: the first step of each model.
        graph = _small_graph(seed=2)
        for name in ("gcn", "sage"):
            counts = self._train(name, graph)
            assert counts[0][0] > 0 and counts[0][1] == 0 and set(counts[1:]) == {(0, 0)}
        assert self._train("gcn", graph, steps=2) == [(0, 0), (0, 0)]

    def test_fresh_graphs_convert_independently(self):
        for seed in range(3):
            counts = self._train("gcn", _small_graph(seed=seed), steps=2)
            assert counts[0][0] > 0 and counts[1] == (0, 0)

    def test_orthogcn_builds_its_operator_once(self):
        # OrthoGCN propagates through graph.s_op and projects graph.x; its
        # input layer's backward reads both containers' own arrays.
        counts = self._train("ortho", _small_graph(seed=3))
        assert counts[0][0] > 0 and counts[0][1] == 0 and set(counts[1:]) == {(0, 0)}


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
        # Rows 5.. of a matrix, sharing its arrays: the indptr starts
        # wherever row 5 did.  Both products read only the entries it spans.
        c, x = self.operands(dtype, seed=2)
        sub = CSRMatrix(c.data, c.indices, c.indptr[5:], (35, 30))
        assert sub.indptr[0] > 0
        want = c.to_scipy()[5:]
        assert sub.matmul(x, out=np.ones((35, 7), dtype)).tobytes() == (want @ x).tobytes()
        g = np.random.default_rng(3).standard_normal((35, 5)).astype(dtype)
        want = want.T.tocsr() @ g
        assert sub.rmatmul(g, out=np.ones((30, 5), dtype)).tobytes() == want.tobytes()
        assert sub.rmatmul(g).tobytes() == want.tobytes()

    def test_scipy_still_runs_the_same_kernel(self, monkeypatch):
        # If scipy's `S @ x` stops calling `_sparsetools.csr_matvecs`, or its
        # `S.T @ g` `csc_matvecs`, the byte equality above is no longer a
        # statement about scipy's product.
        from scipy.sparse import _sparsetools

        assert _sparsetools is csr_mod._sparsetools
        c, x = self.operands(np.float32)
        calls = spy_kernel(monkeypatch, "csr_matvecs")
        c.to_scipy() @ x
        c.matmul(x)
        assert [len(a) for a in calls] == [8, 8]
        calls = spy_kernel(monkeypatch, "csc_matvecs")
        g = np.ones((40, 3), np.float32)
        c.to_scipy().T @ g
        c.rmatmul(g)
        assert [len(a) for a in calls] == [8, 8]

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

"""First-class CSR container: the one sparse matrix a FedOMD run builds.

Historically every layer's ``spmm`` backward rebuilt ``S.T.tocsr()`` —
the closure variable meant to cache the transpose was fresh on every
forward call, so each training step paid one full O(nnz) sparse
conversion per layer.  :class:`CSRMatrix` fixes that at the root: the
container is built **once per party graph** (cached on
:class:`~repro.graphs.data.Graph` as ``s_op`` / ``mean_op``), and no
transpose is ever built: the CSR arrays of ``S`` are the CSC arrays of
``Sᵀ``, so :meth:`CSRMatrix.rmatmul` runs ``Sᵀ @ G`` through scipy's
``csc_matvecs`` on the matrix's own arrays.  A graph's adjacency and
features are containers too, built in NumPy, byte for byte (int32
indices included) what ``scipy.sparse`` builds for the same matrix.

Numerical contract: ``csc_matvecs`` adds into each output row of
``Sᵀ @ G`` in ascending row order of ``S``, which is the order the
entries of ``S.T.tocsr()`` hold, so the product is byte for byte the one
``csr_matvecs`` computes on the transposed copy, and the substrate cannot
move the golden training digests.

Every product is one direct call of a scipy kernel, into a caller's
buffer if it hands one in; :func:`repro.autograd.spmm` consumes the
container as a fused autograd op and accepts no other sparse operand,
and :func:`repro.autograd.matmul` hands a container on its left to it.
The kernels are loaded alone (:func:`_load_sparsetools`): ``import
scipy.sparse`` costs ~14 MB of RSS (scipy 1.17).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

import numpy as np


def _load_sparsetools():
    """scipy's compiled CSR kernels without ``scipy/sparse/__init__``: the loaded module,
    else its extension file, registered so a later ``import scipy.sparse`` binds it."""
    name = "scipy.sparse._sparsetools"
    if name in sys.modules:
        return sys.modules[name]
    folder = os.path.join(importlib.util.find_spec("scipy").submodule_search_locations[0], "sparse")
    ext = (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES)
    spec = importlib.machinery.FileFinder(folder, ext).find_spec(name)
    if spec is None:
        from importlib.metadata import version

        raise ImportError(f"scipy {version('scipy')} has no compiled _sparsetools in {folder}")
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_sparsetools = _load_sparsetools()


def is_scipy_sparse(m) -> bool:
    """Whether ``m`` is a scipy sparse matrix, without importing ``scipy.sparse``."""
    sp = sys.modules.get("scipy.sparse")
    return sp is not None and sp.issparse(m)


def expand_rows(indptr: np.ndarray) -> np.ndarray:
    """The row of every stored entry of a CSR matrix (scipy's ``expandptr``)."""
    return np.repeat(np.arange(len(indptr) - 1, dtype=indptr.dtype), np.diff(indptr))


def upper_triangle(m) -> tuple:
    """``sp.triu(m, 1)``'s COO stream of a CSRMatrix or scipy matrix, in storage order."""
    m = m if isinstance(m, CSRMatrix) else m.tocsr()
    rows = expand_rows(m.indptr)
    up = m.indices > rows
    return rows[up], m.indices[up]


def symmetric_adjacency(rows: np.ndarray, cols: np.ndarray, n: int) -> "CSRMatrix":
    """scipy's ``(A + Aᵀ > 0)`` in float64 for the pairs ``A[rows, cols]``, no self pairs."""
    rows, cols = np.asarray(rows, np.int64), np.asarray(cols, np.int64)
    keys = unique(np.concatenate([rows * n + cols, cols * n + rows]))
    return from_coo(keys // n, keys % n, np.ones(len(keys)), (n, n))


def unique(keys: np.ndarray) -> np.ndarray:
    """``np.unique`` of integer ``keys`` by one sort, not numpy 2.4's slower hashing
    (whose first call also imports ``numpy.ma``)."""
    keys = np.sort(keys)
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return keys[first]


def from_coo(rows, cols, data, shape) -> "CSRMatrix":
    """The CSR of row-sorted entries; int32 indices unless the size needs int64."""
    idx = np.int32 if max(len(rows), *shape) <= np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(shape[0] + 1, dtype=idx)
    np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
    return CSRMatrix(data, cols.astype(idx), indptr, shape)


def as_csr(m) -> "CSRMatrix":
    """``m`` as a :class:`CSRMatrix`: kept if it is one, else converted once to
    sorted, unique columns without explicit zeros (what scipy's ``csr_matrix``
    stores), in float32 or float64 (any other dtype becomes float64)."""
    if isinstance(m, CSRMatrix):
        return m
    m = m if is_scipy_sparse(m) else np.asarray(m)
    dtype = m.dtype if m.dtype in (np.float32, np.float64) else np.float64
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    if is_scipy_sparse(m):
        m = m.tocsr().astype(dtype, copy=True)
        m.sum_duplicates()
        m.eliminate_zeros()
        return CSRMatrix(m.data, m.indices, m.indptr, m.shape)
    rows, cols = np.nonzero(m)
    return from_coo(rows, cols, m[rows, cols].astype(dtype), m.shape)


def add_scaled_rows(acc: np.ndarray, rows: np.ndarray, values: np.ndarray, scale: float) -> None:
    """``acc[rows] += values * scale`` in one compiled pass.

    ``rows`` are sorted, unique row indices of the C-contiguous ``acc``,
    one per row of ``values``.  This is scipy's CSR × dense kernel
    ``csr_matvecs`` (``Y += A·X``) on the matrix with the one entry
    ``A[rows[k], k] = scale`` per held row: per element it does the same
    multiply and then the same add as the NumPy expression, so the
    result is bitwise equal, without the gather, the product buffer and
    the scatter.
    """
    if not acc.flags.c_contiguous:
        raise ValueError("acc must be C-contiguous")
    n_rows, n_held = acc.shape[0], len(rows)
    if values.shape != (n_held,) + acc.shape[1:]:
        raise ValueError(f"values {values.shape} do not match {n_held} rows of {acc.shape}")
    a = from_coo(np.asarray(rows), np.arange(n_held), np.full(n_held, scale, acc.dtype),
                 (n_rows, n_held))
    width = acc.size // max(n_rows, 1)
    x = np.asarray(values, acc.dtype).reshape(n_held, width)
    a.matmul(x, acc.reshape(n_rows, width), add=True)


class CSRMatrix:
    """An immutable float32 or float64 CSR matrix.

    Parameters
    ----------
    data, indices, indptr, shape:
        Standard CSR arrays.  ``data`` must already be float32 or
        float64 — the substrate never casts silently (a cast would
        detach the arrays from the scipy matrix the caller built); a
        dataset casts its features once, with :meth:`astype`.

    Notes
    -----
    ``is_kernel_operator`` marks the container for structural dispatch
    (``spmm``, ``payload_bytes``) without forcing upward imports from
    ``repro.autograd``.  Instances are treated as constants: the arrays
    are shared, not copied, and must not be mutated after construction.
    """

    is_kernel_operator = True

    __slots__ = ("data", "indices", "indptr", "shape", "_scipy")

    def __init__(
        self,
        data: np.ndarray,
        indices: np.ndarray,
        indptr: np.ndarray,
        shape: tuple,
    ) -> None:
        data = np.asarray(data)
        if data.dtype not in (np.float32, np.float64):
            raise ValueError(
                f"CSRMatrix requires float32 or float64 values, got {data.dtype}; "
                "cast the sparse matrix once at construction time"
            )
        self.data = data
        self.indices = np.asarray(indices)
        self.indptr = np.asarray(indptr)
        self.shape = (int(shape[0]), int(shape[1]))
        self._scipy = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_scipy(cls, m) -> "CSRMatrix":
        """Wrap a scipy sparse matrix (no value copy for CSR input)."""
        if not is_scipy_sparse(m):
            raise TypeError(f"expected a scipy.sparse matrix, got {type(m).__name__}")
        csr = m.tocsr()
        out = cls(csr.data, csr.indices, csr.indptr, csr.shape)
        out._scipy = csr
        return out

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        return int(self.data.size)

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def ndim(self) -> int:
        return 2

    @property
    def nbytes(self) -> int:
        """Bytes held by the CSR arrays."""
        return self.data.nbytes + self.indices.nbytes + self.indptr.nbytes

    # ------------------------------------------------------------------
    # products
    # ------------------------------------------------------------------
    def matmul(self, x: np.ndarray, out=None, add: bool = False) -> np.ndarray:
        """``S @ x`` for a 2-D ``x``, bitwise scipy's (one call of its kernel); a
        given ``out`` (C-contiguous, the product's dtype and shape) is
        overwritten with it, or has it added with ``add``."""
        return self._product(_sparsetools.csr_matvecs, self.shape, x, out, add)

    def rmatmul(self, g: np.ndarray, out=None) -> np.ndarray:
        """``Sᵀ @ g`` for a 2-D ``g``, bitwise ``S.T.tocsr() @ g``; ``out`` as in
        :meth:`matmul`.  scipy's CSC kernel reads this matrix's own arrays,
        which are the CSC arrays of ``Sᵀ``: no transpose is built."""
        return self._product(_sparsetools.csc_matvecs, self.shape[::-1], g, out, False)

    def _product(self, kernel, shape: tuple, x: np.ndarray, out, add: bool) -> np.ndarray:
        """``kernel`` (a ``*_matvecs``) on these arrays as a ``shape`` matrix, times ``x``."""
        if x.ndim != 2 or x.shape[0] != shape[1]:
            raise ValueError(f"cannot multiply {shape} by {x.shape}")
        dtype, out_shape = np.result_type(self.data, x), (shape[0], x.shape[1])
        if out is None:
            out = np.zeros(out_shape, dtype)
        elif out.shape != out_shape or out.dtype != dtype or not out.flags.c_contiguous:
            raise ValueError(f"out must be a C-contiguous {dtype} array of shape {out_shape}")
        elif not add:
            out.fill(0)
        x = np.ascontiguousarray(x, dtype=dtype).reshape(-1)
        data, y = self.data.astype(dtype, copy=False), out.reshape(-1)
        kernel(*shape, out_shape[1], self.indptr, self.indices, data, x, y)
        return out

    def __matmul__(self, other):
        if isinstance(other, np.ndarray):
            return self.matmul(other)
        return NotImplemented  # defer to Tensor.__rmatmul__ (fused spmm)

    def astype(self, dtype) -> "CSRMatrix":
        """This matrix with its values in ``dtype``: ``self`` when they are.

        The copy shares the index arrays.
        """
        if self.dtype == dtype:
            return self
        return CSRMatrix(self.data.astype(dtype), self.indices, self.indptr, self.shape)

    def compact_columns(self, cols: np.ndarray) -> "CSRMatrix":
        """This matrix restricted to the sorted columns ``cols``, renumbered 0..len-1.

        ``cols`` must hold every stored column.  Each row keeps its
        entries in the same order, so ``X_c @ W[cols]`` adds the same
        products in the same order as ``X @ W``, and ``X_cᵀ @ G`` adds into its
        row ``i`` what ``Xᵀ @ G`` adds into row ``cols[i]``, in the same order:
        the other rows of ``Xᵀ @ G`` are 0, so it is exactly ``(Xᵀ @ G)[cols]``.
        ``data`` and ``indptr`` are shared.
        """
        remap = np.empty(self.shape[1], self.indices.dtype)
        remap[cols] = np.arange(len(cols))
        return CSRMatrix(self.data, remap[self.indices], self.indptr, (self.shape[0], len(cols)))

    # ------------------------------------------------------------------
    # interop
    # ------------------------------------------------------------------
    def to_scipy(self):
        """Cached ``scipy.sparse.csr_matrix`` view sharing these arrays
        (for baselines and tests: it imports ``scipy.sparse``)."""
        if self._scipy is None:
            import scipy.sparse as sp

            self._scipy = sp.csr_matrix((self.data, self.indices, self.indptr), shape=self.shape)
        return self._scipy

    def toarray(self) -> np.ndarray:
        """Dense copy, for tests and small inspection only: no model or
        trainer densifies a graph's features."""
        return self.to_scipy().toarray()

    def copy(self) -> "CSRMatrix":
        """A copy of the arrays."""
        return CSRMatrix(self.data.copy(), self.indices.copy(), self.indptr.copy(), self.shape)

    def row_sums(self) -> np.ndarray:
        """Each row's sum, added as scipy's ``m.sum(axis=1)`` adds it."""
        out, rows = np.zeros(self.shape[0], self.dtype), np.flatnonzero(np.diff(self.indptr))
        if rows.size:
            out[rows] = np.add.reduceat(self.data, self.indptr[rows])
        return out

    def take(self, rows: np.ndarray, cols=None) -> "CSRMatrix":
        """Rows ``rows``, then distinct columns ``cols``: scipy's ``m[rows][:, cols]``."""
        counts = np.diff(self.indptr)[rows]
        row_of = np.repeat(np.arange(len(rows)), counts)
        starts = self.indptr[rows] - np.cumsum(counts) + counts
        pos = np.arange(len(row_of)) + np.repeat(starts, counts)
        data, indices, width = self.data[pos], self.indices[pos], self.shape[1]
        if cols is not None:
            new = np.full(width, -1, self.indices.dtype)
            new[cols] = np.arange(len(cols))
            keep = new[indices] >= 0
            data, indices, row_of, width = data[keep], new[indices[keep]], row_of[keep], len(cols)
        return from_coo(row_of, indices, data, (len(rows), width))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CSRMatrix(shape={self.shape}, nnz={self.nnz})"

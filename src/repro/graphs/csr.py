"""First-class CSR container for the propagation hot path.

Historically every layer's ``spmm`` backward rebuilt ``S.T.tocsr()`` —
the closure variable meant to cache the transpose was fresh on every
forward call, so each training step paid one full O(nnz) sparse
conversion per layer.  :class:`CSRMatrix` fixes that at the root: the
container is built **once per party graph** (cached on
:class:`~repro.graphs.data.Graph` alongside ``s_norm`` / ``mean_adj``)
and carries the normalized adjacency *and its pre-transposed
reverse-CSR* for backward, the HGL-proto ``SPMVFunction`` design.

Numerical contract: the reverse arrays are produced by one CSR→CSC
conversion and reinterpreted as the CSR of Sᵀ — bitwise identical to
the ``S.T.tocsr()`` the old code computed per call, so swapping the
substrate in cannot move the golden training digests.

Both products run scipy's compiled CSR kernel on the container's cached
scipy view; :func:`repro.autograd.spmm` consumes the container as a
fused autograd op and accepts no other sparse operand.

This module also owns the transpose-conversion counter: every reverse
(Sᵀ) CSR materialization reports here, which is how the regression
suite asserts the "build the transpose once per graph" contract instead
of trusting a comment.
"""

from __future__ import annotations

import threading

import numpy as np
import scipy.sparse as sp

from repro.obs.metrics import Counter, get_registry

# The transpose-conversion meter is a real (always-on, lock-guarded)
# metrics Counter rather than a bare int: when a telemetry session is
# live the count also mirrors into its registry, so the JSONL trace
# carries it alongside the csr-cache metrics.  Resets never touch the
# monotonic instrument — they move the subtraction base.
_transpose_conversions = Counter("kernel.transpose_conversions")
_lock = threading.Lock()
_reset_base = 0  # guarded-by(_lock)


def _count_transpose_conversion() -> None:
    """Record one materialized Sᵀ CSR."""
    _transpose_conversions.inc()
    reg = get_registry()
    if reg.enabled:
        reg.counter("kernel.transpose_conversions").inc()


def transpose_conversion_count() -> int:
    """Reverse-CSR conversions built process-wide since the last reset."""
    total = int(_transpose_conversions.value)
    with _lock:
        return total - _reset_base


def reset_transpose_conversion_count() -> int:
    """Rebase the conversion counter; returns the count since last reset."""
    global _reset_base
    total = int(_transpose_conversions.value)
    with _lock:
        prev = total - _reset_base
        _reset_base = total
    return prev


class CSRMatrix:
    """An immutable float64 CSR matrix with a cached reverse (transpose).

    Parameters
    ----------
    data, indices, indptr, shape:
        Standard CSR arrays.  ``data`` must already be float64 — the
        substrate never casts silently (a cast would detach the arrays
        from the scipy matrix the caller built, and non-float64
        adjacencies are a construction bug upstream).

    Notes
    -----
    ``is_kernel_operator`` marks the container for structural dispatch
    (``spmm``, ``payload_bytes``) without forcing upward imports from
    ``repro.autograd``.  Instances are treated as constants: the arrays
    are shared, not copied, and must not be mutated after construction.
    """

    is_kernel_operator = True

    __slots__ = ("data", "indices", "indptr", "shape", "_scipy", "_rev")

    def __init__(
        self,
        data: np.ndarray,
        indices: np.ndarray,
        indptr: np.ndarray,
        shape: tuple,
    ) -> None:
        data = np.asarray(data)
        if data.dtype != np.float64:
            raise ValueError(
                f"CSRMatrix requires float64 values, got {data.dtype}; "
                "cast the sparse matrix once at construction time"
            )
        self.data = data
        self.indices = np.asarray(indices)
        self.indptr = np.asarray(indptr)
        self.shape = (int(shape[0]), int(shape[1]))
        self._scipy: sp.csr_matrix = None
        self._rev: "CSRMatrix" = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_scipy(cls, m: sp.spmatrix, build_reverse: bool = True) -> "CSRMatrix":
        """Wrap a scipy sparse matrix (no value copy for CSR input).

        ``build_reverse`` (default) materializes the reverse-CSR eagerly
        — the container is built once per graph, so the single O(nnz)
        conversion happens at a deterministic point instead of inside
        the first backward pass of a (possibly multi-threaded) round.
        """
        if not sp.issparse(m):
            raise TypeError(f"expected a scipy.sparse matrix, got {type(m).__name__}")
        csr = m.tocsr()
        if csr.dtype != np.float64:
            raise ValueError(
                f"CSRMatrix requires a float64 matrix, got dtype {csr.dtype}"
            )
        out = cls(csr.data, csr.indices, csr.indptr, csr.shape)
        out._scipy = csr
        if build_reverse:
            out._build_reverse()
        return out

    def _build_reverse(self) -> "CSRMatrix":
        """Materialize Sᵀ in CSR form (exactly once; metered).

        One CSR→CSC conversion; the CSC arrays of S *are* the CSR arrays
        of Sᵀ, value-for-value what ``S.T.tocsr()`` would produce.  The
        reverse's reverse is this container — round trips are free.
        """
        csc = self.to_scipy().tocsc()
        _count_transpose_conversion()
        rev = CSRMatrix(csc.data, csc.indices, csc.indptr, (self.shape[1], self.shape[0]))
        rev._rev = self
        self._rev = rev
        return rev

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------
    @property
    def rev(self) -> "CSRMatrix":
        """The pre-transposed reverse-CSR (Sᵀ), built at most once."""
        if self._rev is None:
            self._build_reverse()
        return self._rev

    @property
    def T(self) -> "CSRMatrix":
        """Alias of :attr:`rev` for matrix-API symmetry."""
        return self.rev

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
        """Bytes held by the CSR arrays, plus the reverse's once it is built."""
        total = 0
        for m in (self, self._rev):
            if m is not None:
                total += m.data.nbytes + m.indices.nbytes + m.indptr.nbytes
        return total

    # ------------------------------------------------------------------
    # products
    # ------------------------------------------------------------------
    def matmul(self, x: np.ndarray) -> np.ndarray:
        """Dense product ``S @ x`` (scipy's compiled CSR kernel)."""
        return self.to_scipy() @ x

    def rev_matmul(self, grad: np.ndarray) -> np.ndarray:
        """``Sᵀ @ grad`` via the cached reverse-CSR (the backward product)."""
        return self.rev.matmul(grad)

    def __matmul__(self, other):
        if isinstance(other, np.ndarray):
            return self.matmul(other)
        return NotImplemented  # defer to Tensor.__rmatmul__ (fused spmm)

    def compact_columns(self, cols: np.ndarray) -> "CSRMatrix":
        """This matrix restricted to the sorted columns ``cols``, renumbered 0..len-1.

        ``cols`` must hold every stored column.  Each row keeps its
        entries in the same order, so ``X_c @ W[cols]`` adds the same
        products in the same order as ``X @ W``.  ``data`` and ``indptr``
        are shared.  The reverse is the rows ``cols`` of this matrix's
        reverse (built here if it was not) and shares its ``data`` and
        ``indices``: the other rows of Xᵀ are empty, so ``X_cᵀ @ G`` is
        exactly ``(Xᵀ @ G)[cols]``.
        """
        indices = np.searchsorted(cols, self.indices).astype(self.indices.dtype)
        out = CSRMatrix(self.data, indices, self.indptr, (self.shape[0], len(cols)))
        rev = self.rev
        rev_indptr = np.append(rev.indptr[cols], rev.indptr[-1])
        out._rev = CSRMatrix(rev.data, rev.indices, rev_indptr, (len(cols), self.shape[0]))
        out._rev._rev = out
        return out

    # ------------------------------------------------------------------
    # interop
    # ------------------------------------------------------------------
    def to_scipy(self) -> sp.csr_matrix:
        """Cached ``scipy.sparse.csr_matrix`` view sharing these arrays."""
        if self._scipy is None:
            self._scipy = sp.csr_matrix(
                (self.data, self.indices, self.indptr), shape=self.shape
            )
        return self._scipy

    def toarray(self) -> np.ndarray:
        """Dense copy (``Graph.x_dense`` caches one for the dense-input models)."""
        return self.to_scipy().toarray()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        rev = "cached" if self._rev is not None else "unbuilt"
        return f"CSRMatrix(shape={self.shape}, nnz={self.nnz}, rev={rev})"

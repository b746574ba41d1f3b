"""Matrix products: ``matmul``, sparse-constant ``spmm``, transpose.

``spmm`` is the hot path of every GCN forward/backward: the normalized
adjacency is a fixed sparse matrix, so only the dense operand needs a
gradient, and the VJP is a single transposed sparse product
(``Sᵀ @ grad``) — O(nnz·d), never densified.

The sparse operand is always a :class:`~repro.graphs.csr.CSRMatrix`: the
forward product runs scipy's CSR kernel on its arrays, and the backward
runs scipy's CSC kernel on the same arrays (they are ``Sᵀ``'s CSC
arrays), a leaf's first gradient into a pool.  A raw ``scipy.sparse``
matrix is rejected; wrap it once with ``CSRMatrix.from_scipy``.

Sparse operands are constants; mutating one between a forward and its
backward is unsupported.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from repro.autograd.tensor import Tensor, as_tensor
from repro.autograd import signatures as _signatures
from repro.obs import cost as _cost

_signatures.expect("matmul", "spmm", "transpose")

#: The one sparse-product kernel: scipy's compiled CSR × dense product.
_KERNEL = SimpleNamespace(name="numpy")


def get_backend() -> SimpleNamespace:
    """The sparse-product kernel; its ``name`` is always ``"numpy"``."""
    return _KERNEL


def matmul(a, b) -> Tensor:
    """2-D matrix product ``a @ b``; a sparse ``a`` (a ``CSRMatrix``) is :func:`spmm`'s.

    Gradients: ``dA = G @ Bᵀ`` and ``dB = Aᵀ @ G`` — the standard matrix
    calculus identities.
    """
    if _is_sparse_operand(a):
        return spmm(a, b)
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"matmul expects 2-D operands, got {a.shape} @ {b.shape}")
    out_data = a.data @ b.data

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad @ b.data.T, owned=True)
        if b.requires_grad:
            b._accumulate(a.data.T @ grad, owned=True)

    return Tensor._make(out_data, (a, b), backward, "matmul")


def spmm(s, x) -> Tensor:
    """Sparse-constant × dense product ``S @ X``.

    ``S`` — a :class:`~repro.graphs.csr.CSRMatrix` — is treated as a
    constant (the graph's normalized adjacency); the gradient w.r.t.
    ``X`` is ``Sᵀ @ G``, read from ``S``'s own arrays by
    :meth:`~repro.graphs.csr.CSRMatrix.rmatmul`: no transpose is built.

    Operands are validated up front: a shape mismatch raises a clear
    ``ValueError`` instead of dying inside scipy internals.  The
    container holds float32 or float64 values; a run casts its operators
    to its dtype once, at construction, so the product keeps that dtype.
    """
    x = as_tensor(x)
    if not _is_sparse_operand(s):
        raise TypeError(
            "spmm first operand must be a CSRMatrix (wrap a scipy.sparse "
            f"matrix once with CSRMatrix.from_scipy), got {type(s).__name__}"
        )
    if x.ndim != 2:
        raise ValueError(f"spmm dense operand must be 2-D, got shape {x.shape}")
    if s.shape[1] != x.shape[0]:
        raise ValueError(
            f"spmm shape mismatch: S is {s.shape} but X is {x.shape} "
            f"(S.shape[1] must equal X.shape[0])"
        )

    # spmm reports its own cost (EXPLICIT_OPS): the generic shape hook
    # only sees the dense parent, not nnz.
    out_data = s.matmul(x.data)
    cc = _cost._collector
    if cc is not None:
        cc.spmm_op("fwd", s, x.data, out_data)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            accumulate_transposed_product(x, s, grad)

    return Tensor._make(out_data, (x,), backward, "spmm")


def transposed_product(s, grad: np.ndarray, out=None) -> np.ndarray:
    """``Sᵀ @ grad``, priced as ``spmm``'s backward: the same entries as the forward."""
    dx = s.rmatmul(grad, out=out)
    cc = _cost._collector
    if cc is not None:
        cc.spmm_op("bwd", s, grad, dx)
    return dx


def accumulate_transposed_product(x: Tensor, s, grad: np.ndarray) -> None:
    """Add ``Sᵀ @ grad`` to ``x``'s gradient; a leaf's first one of its
    dtype is written straight into a pooled buffer."""
    if x.grad is None and x._backward is None and np.result_type(s.data, grad) == x.data.dtype:
        transposed_product(s, grad, out=x._pooled_grad())
    else:
        x._accumulate(transposed_product(s, grad), owned=True)


def transpose(a) -> Tensor:
    """2-D transpose; gradient is the transpose of the incoming gradient."""
    a = as_tensor(a)
    if a.ndim != 2:
        raise ValueError(f"transpose expects a 2-D tensor, got shape {a.shape}")
    out_data = a.data.T

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad.T)

    return Tensor._make(out_data, (a,), backward, "transpose")


def _is_sparse_operand(other) -> bool:
    # Structural check: autograd never imports repro.graphs.
    return getattr(other, "is_kernel_operator", False)


Tensor.__matmul__ = lambda self, other: matmul(self, other)
Tensor.__rmatmul__ = lambda self, other: matmul(other, self)
Tensor.matmul = matmul

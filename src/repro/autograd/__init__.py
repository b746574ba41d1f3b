"""Reverse-mode automatic differentiation over NumPy arrays.

This subpackage is the computational substrate for the whole reproduction:
the paper trains graph neural networks with gradient descent, and since no
deep-learning framework is available offline, we implement the required
subset of one here.

Design
------
* :class:`~repro.autograd.tensor.Tensor` wraps a ``numpy.ndarray`` and
  records the operation that produced it (a closure computing input
  gradients from the output gradient).
* ``Tensor.backward()`` topologically sorts the recorded graph and
  accumulates gradients — classic reverse-mode AD, the same contract as
  ``torch.Tensor.backward``.
* Operations live in ``ops_*.py`` modules and are attached to ``Tensor``
  as methods and/or free functions.  Only the ops needed by GCNs,
  orthogonal networks, CMD losses and the federated baselines are
  implemented, each with gradients checked against finite differences in
  ``tests/autograd``.
* Sparse matrices (a :class:`~repro.graphs.csr.CSRMatrix`) appear only
  as *constants* (the normalized adjacency); ``spmm`` differentiates
  through the dense operand only, which is exactly what GCN training
  needs.

Performance notes (per the HPC guides): all ops are vectorized NumPy;
gradients reuse buffers where safe; the backward pass allocates one
gradient array per node and accumulates in place with ``+=``.
"""

from repro.autograd.tensor import (
    Tensor,
    as_tensor,
    no_grad,
    is_grad_enabled,
    get_tensor_sanitizer,
    set_tensor_sanitizer,
    zeros,
    ones,
    randn,
)
from repro.autograd import ops_basic  # noqa: F401  (registers methods)
from repro.autograd import ops_matmul  # noqa: F401
from repro.autograd import ops_reduce  # noqa: F401
from repro.autograd import ops_nn  # noqa: F401
from repro.autograd import ops_shape  # noqa: F401
from repro.autograd.ops_basic import maximum
from repro.autograd.ops_matmul import get_backend, matmul, spmm, transpose
from repro.autograd.ops_nn import (
    relu,
    leaky_relu,
    sigmoid,
    tanh,
    softmax,
    log_softmax,
    dropout,
)
from repro.autograd.ops_reduce import sum as tsum, mean as tmean, frobenius_norm, l2_norm
from repro.autograd.ops_shape import concat, stack, scatter_add
from repro.autograd.gradcheck import gradcheck

__all__ = [
    "Tensor",
    "as_tensor",
    "no_grad",
    "is_grad_enabled",
    "get_tensor_sanitizer",
    "set_tensor_sanitizer",
    "zeros",
    "ones",
    "randn",
    "maximum",
    "matmul",
    "spmm",
    "transpose",
    "relu",
    "leaky_relu",
    "sigmoid",
    "tanh",
    "softmax",
    "log_softmax",
    "dropout",
    "tsum",
    "tmean",
    "frobenius_norm",
    "l2_norm",
    "concat",
    "stack",
    "scatter_add",
    "get_backend",
    "gradcheck",
]

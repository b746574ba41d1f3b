"""Shape manipulation: reshape, row indexing, concat, stack.

``getitem`` with an integer/boolean index array is how losses restrict to
the train-mask rows (semi-supervised node classification touches only 1%
of nodes in the CE term); its gradient scatters back with ``np.add.at``
to handle repeated indices correctly.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.autograd.tensor import Tensor, as_tensor
from repro.autograd import signatures as _signatures

_signatures.expect("reshape", "getitem", "scatter_add", "concat", "stack")


def reshape(a, *shape: int) -> Tensor:
    """Reshape preserving element order."""
    a = as_tensor(a)
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    out_data = a.data.reshape(shape)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad.reshape(a.shape))

    return Tensor._make(out_data, (a,), backward, "reshape")


def getitem(a, idx) -> Tensor:
    """Row selection ``a[idx]`` for integer arrays, boolean masks or slices."""
    a = as_tensor(a)
    if isinstance(idx, Tensor):
        idx = idx.data
    if isinstance(idx, np.ndarray) and idx.dtype == bool:
        idx = np.flatnonzero(idx)
    out_data = a.data[idx]

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            full = np.zeros_like(a.data)
            if isinstance(idx, (np.ndarray, list)):
                np.add.at(full, idx, grad)
            else:
                full[idx] = grad
            a._accumulate(full)

    return Tensor._make(out_data, (a,), backward, "getitem")


def scatter_add(src, idx, num_rows: int) -> Tensor:
    """Row scatter-accumulate: ``out[idx[e]] += src[e]``.

    The adjoint of row gathering — together with ``getitem`` it lets
    message-passing layers (GAT's edge softmax) be composed entirely
    from differentiable primitives.  ``idx`` is a constant int array.
    """
    src = as_tensor(src)
    idx = np.asarray(idx.data if isinstance(idx, Tensor) else idx, dtype=np.int64)
    if idx.ndim != 1 or len(idx) != src.shape[0]:
        raise ValueError("idx must be 1-D with one entry per src row")
    if idx.size and (idx.min() < 0 or idx.max() >= num_rows):
        raise ValueError("idx out of range")
    out_shape = (num_rows,) + src.shape[1:]
    out_data = np.zeros(out_shape, dtype=src.data.dtype)
    np.add.at(out_data, idx, src.data)

    def backward(grad: np.ndarray) -> None:
        if src.requires_grad:
            src._accumulate(grad[idx])

    return Tensor._make(out_data, (src,), backward, "scatter_add")


def concat(tensors: Sequence, axis: int = 0) -> Tensor:
    """Concatenate along ``axis``; gradient splits back by segment."""
    ts = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.shape[axis] for t in ts]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for t, lo, hi in zip(ts, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                sl = [slice(None)] * grad.ndim
                sl[axis] = slice(lo, hi)
                t._accumulate(grad[tuple(sl)])

    return Tensor._make(out_data, tuple(ts), backward, "concat")


def stack(tensors: Sequence, axis: int = 0) -> Tensor:
    """Stack equally-shaped tensors along a new axis."""
    ts = [as_tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in ts], axis=axis)

    def backward(grad: np.ndarray) -> None:
        moved = np.moveaxis(grad, axis, 0)
        for t, g in zip(ts, moved):
            if t.requires_grad:
                t._accumulate(g)

    return Tensor._make(out_data, tuple(ts), backward, "stack")


Tensor.reshape = reshape
Tensor.__getitem__ = getitem

"""Reductions: sum / mean / max along axes, vector and Frobenius norms.

The norm ops matter for the paper directly: Eq. 6 is a sum of Frobenius
norms and Eq. 11 a sum of L2 norms of moment differences.  Both get a
numerically-safe gradient at zero (subgradient 0) so training never
produces NaNs when a moment difference vanishes exactly.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from repro.autograd.tensor import Tensor, as_tensor
from repro.autograd import signatures as _signatures

_signatures.expect("sum", "mean", "max", "l2_norm")

_Axis = Union[None, int, Sequence[int]]


def _expand_reduced(grad: np.ndarray, shape: tuple, axis: _Axis, keepdims: bool) -> np.ndarray:
    """Broadcast a reduced gradient back to the pre-reduction shape."""
    if axis is None:
        return np.broadcast_to(grad, shape)
    if not keepdims:
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        axes = tuple(a % len(shape) for a in axes)
        for a in sorted(axes):
            grad = np.expand_dims(grad, a)
    return np.broadcast_to(grad, shape)


def sum(a, axis: _Axis = None, keepdims: bool = False) -> Tensor:  # noqa: A001
    """Sum along ``axis`` (all elements when ``None``)."""
    a = as_tensor(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(_expand_reduced(grad, a.shape, axis, keepdims).copy())

    return Tensor._make(out_data, (a,), backward, "sum")


def mean(a, axis: _Axis = None, keepdims: bool = False) -> Tensor:
    """Arithmetic mean along ``axis``."""
    a = as_tensor(a)
    out_data = a.data.mean(axis=axis, keepdims=keepdims)
    count = a.data.size if axis is None else int(np.prod(
        [a.shape[ax % a.ndim] for ax in ((axis,) if isinstance(axis, int) else axis)]
    ))

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(_expand_reduced(grad, a.shape, axis, keepdims) / count)

    return Tensor._make(out_data, (a,), backward, "mean")


def max(a, axis: _Axis = None, keepdims: bool = False) -> Tensor:  # noqa: A001
    """Maximum along ``axis``; gradient flows to (all) argmax positions."""
    a = as_tensor(a)
    out_data = a.data.max(axis=axis, keepdims=keepdims)
    mask = a.data == a.data.max(axis=axis, keepdims=True)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            g = _expand_reduced(grad, a.shape, axis, keepdims)
            a._accumulate(g * mask)

    return Tensor._make(out_data, (a,), backward, "max")


def l2_norm(a, eps: float = 1e-12) -> Tensor:
    """Euclidean norm of all elements, ``sqrt(Σ a² + eps)``.

    The ``eps`` regularizes the gradient ``a / ‖a‖`` at the origin —
    without it, a perfectly matched central moment (zero difference)
    would back-propagate NaN into the CMD loss.
    """
    a = as_tensor(a)
    sq = float((a.data * a.data).sum())
    val = float(np.sqrt(sq + eps))
    out_data = np.asarray(val, dtype=a.data.dtype)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(float(grad) * a.data / val)

    return Tensor._make(out_data, (a,), backward, "l2_norm")


def frobenius_norm(a, eps: float = 1e-12) -> Tensor:
    """Frobenius norm of a matrix — identical math to :func:`l2_norm`."""
    return l2_norm(a, eps=eps)


Tensor.sum = sum
Tensor.mean = mean
Tensor.max = max

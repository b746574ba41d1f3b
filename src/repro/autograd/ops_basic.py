"""Elementwise arithmetic ops with broadcasting-aware gradients.

Each op builds the forward value with vectorized NumPy and registers a
closure computing the vector-Jacobian product.  Binary ops route incoming
gradients through :func:`~repro.autograd.tensor._unbroadcast` so that
``(n, d) + (d,)`` etc. differentiate correctly.
"""

from __future__ import annotations

import numpy as np

from repro.autograd.tensor import Tensor, as_tensor, _unbroadcast
from repro.autograd import signatures as _signatures

# Cost signatures for the ops this module constructs live in
# repro.autograd.signatures; fail at import if one is missing.
_signatures.expect(
    "add", "sub", "mul", "div", "neg", "pow", "exp", "log", "sqrt",
    "clip", "abs", "maximum",
)


def _operands(a, b) -> tuple:
    """Both operands as tensors; a Python number takes the other's dtype,
    as under NumPy's scalar rule (a float64 0-d array would promote)."""
    if isinstance(b, (int, float)) and isinstance(a, Tensor):
        b = np.asarray(b, dtype=a.data.dtype)
    elif isinstance(a, (int, float)) and isinstance(b, Tensor):
        a = np.asarray(a, dtype=b.data.dtype)
    return as_tensor(a), as_tensor(b)


def add(a, b) -> Tensor:
    """Elementwise ``a + b`` with broadcasting."""
    a, b = _operands(a, b)
    out_data = a.data + b.data

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(grad, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(grad, b.shape))

    return Tensor._make(out_data, (a, b), backward, "add")


def sub(a, b) -> Tensor:
    """Elementwise ``a - b`` with broadcasting."""
    a, b = _operands(a, b)
    out_data = a.data - b.data

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(grad, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-grad, b.shape))

    return Tensor._make(out_data, (a, b), backward, "sub")


def mul(a, b) -> Tensor:
    """Elementwise ``a * b`` with broadcasting."""
    a, b = _operands(a, b)
    out_data = a.data * b.data

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(grad * b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(grad * a.data, b.shape))

    return Tensor._make(out_data, (a, b), backward, "mul")


def div(a, b) -> Tensor:
    """Elementwise ``a / b`` with broadcasting."""
    a, b = _operands(a, b)
    out_data = a.data / b.data

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(grad / b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-grad * a.data / (b.data * b.data), b.shape))

    return Tensor._make(out_data, (a, b), backward, "div")


def neg(a) -> Tensor:
    """Elementwise negation."""
    a = as_tensor(a)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(-grad)

    return Tensor._make(-a.data, (a,), backward, "neg")


def power(a, exponent: float) -> Tensor:
    """Elementwise ``a ** exponent`` for a constant exponent.

    A general op; arbitrary float exponents require positive inputs for
    a valid derivative.  (Central moments do not use it: they come from
    the fused Eq. 11 op ``repro.core.cmd.layerwise_cmd``.)
    """
    a = as_tensor(a)
    exponent = float(exponent)
    out_data = a.data**exponent

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad * exponent * a.data ** (exponent - 1.0))

    return Tensor._make(out_data, (a,), backward, f"pow{exponent}")


def exp(a) -> Tensor:
    """Elementwise exponential."""
    a = as_tensor(a)
    out_data = np.exp(a.data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad * out_data)

    return Tensor._make(out_data, (a,), backward, "exp")


def log(a) -> Tensor:
    """Elementwise natural logarithm."""
    a = as_tensor(a)
    out_data = np.log(a.data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad / a.data)

    return Tensor._make(out_data, (a,), backward, "log")


def sqrt(a) -> Tensor:
    """Elementwise square root."""
    a = as_tensor(a)
    out_data = np.sqrt(a.data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad * 0.5 / out_data)

    return Tensor._make(out_data, (a,), backward, "sqrt")


def clip(a, lo: float, hi: float) -> Tensor:
    """Clamp values to ``[lo, hi]``; gradient is 1 inside, 0 outside.

    Used to bound hidden activations to the CMD interval ``[a, b]``.
    """
    a = as_tensor(a)
    out_data = np.clip(a.data, lo, hi)
    mask = (a.data >= lo) & (a.data <= hi)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad * mask)

    return Tensor._make(out_data, (a,), backward, "clip")


def absolute(a) -> Tensor:
    """Elementwise absolute value (subgradient 0 at 0)."""
    a = as_tensor(a)
    out_data = np.abs(a.data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad * np.sign(a.data))

    return Tensor._make(out_data, (a,), backward, "abs")


def maximum(a, b) -> Tensor:
    """Elementwise maximum; ties send the gradient to ``a``."""
    a, b = _operands(a, b)
    out_data = np.maximum(a.data, b.data)
    take_a = a.data >= b.data

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(grad * take_a, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(grad * ~take_a, b.shape))

    return Tensor._make(out_data, (a, b), backward, "maximum")


# ----------------------------------------------------------------------
# attach operator dunders to Tensor
# ----------------------------------------------------------------------
Tensor.__add__ = lambda self, other: add(self, other)
Tensor.__radd__ = lambda self, other: add(other, self)
Tensor.__sub__ = lambda self, other: sub(self, other)
Tensor.__rsub__ = lambda self, other: sub(other, self)
Tensor.__mul__ = lambda self, other: mul(self, other)
Tensor.__rmul__ = lambda self, other: mul(other, self)
Tensor.__truediv__ = lambda self, other: div(self, other)
Tensor.__rtruediv__ = lambda self, other: div(other, self)
Tensor.__neg__ = lambda self: neg(self)
Tensor.__pow__ = lambda self, e: power(self, e)
Tensor.exp = exp
Tensor.log = log
Tensor.sqrt = sqrt
Tensor.abs = absolute
Tensor.clip = clip

"""Neural-network nonlinearities: relu/sigmoid/tanh, softmax family, dropout.

``log_softmax`` uses the max-shift trick and a fused backward
(``dX = G − softmax(X)·Σ_row G``) — the standard numerically-stable
formulation, required because cross-entropy on 1%-label splits sees very
confident logits late in training.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.autograd.tensor import Tensor, as_tensor, is_grad_enabled
from repro.autograd import signatures as _signatures

_signatures.expect(
    "relu", "leaky_relu", "sigmoid", "tanh", "softmax", "log_softmax", "dropout"
)


def relu(a) -> Tensor:
    """Rectified linear unit, the paper's σ in Eqs. 7–8."""
    a = as_tensor(a)
    mask = a.data > 0
    out_data = a.data * mask

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad * mask, owned=True)

    return Tensor._make(out_data, (a,), backward, "relu")


def leaky_relu(a, negative_slope: float = 0.2) -> Tensor:
    """LeakyReLU (GAT's attention nonlinearity; slope 0.2 per the paper)."""
    a = as_tensor(a)
    mask = a.data > 0
    out_data = np.where(mask, a.data, negative_slope * a.data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad * np.where(mask, 1.0, negative_slope).astype(grad.dtype))

    return Tensor._make(out_data, (a,), backward, "leaky_relu")


def sigmoid(a) -> Tensor:
    """Logistic sigmoid (used by the FedSage+ neighbor generator)."""
    a = as_tensor(a)
    out_data = 1.0 / (1.0 + np.exp(-a.data))

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad * out_data * (1.0 - out_data))

    return Tensor._make(out_data, (a,), backward, "sigmoid")


def tanh(a) -> Tensor:
    """Hyperbolic tangent."""
    a = as_tensor(a)
    out_data = np.tanh(a.data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad * (1.0 - out_data * out_data))

    return Tensor._make(out_data, (a,), backward, "tanh")


def softmax(a, axis: int = -1) -> Tensor:
    """Row-wise softmax (Eq. 9's output activation)."""
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            # dX = s * (g - Σ g·s) along the softmax axis.
            dot = (grad * out_data).sum(axis=axis, keepdims=True)
            a._accumulate(out_data * (grad - dot))

    return Tensor._make(out_data, (a,), backward, "softmax")


def log_softmax(a, axis: int = -1) -> Tensor:
    """Numerically-stable ``log(softmax(x))``."""
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - lse
    soft = np.exp(out_data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad - soft * grad.sum(axis=axis, keepdims=True))

    return Tensor._make(out_data, (a,), backward, "log_softmax")


def dropout(a, p: float, rng: Optional[np.random.Generator] = None, training: bool = True) -> Tensor:
    """Inverted dropout: zero with probability ``p``, scale kept units by 1/(1−p).

    A no-op when ``training`` is False or gradients are globally disabled
    (evaluation passes).
    """
    a = as_tensor(a)
    if not training or p <= 0.0 or not is_grad_enabled():
        return a
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    gen = rng if rng is not None else np.random.default_rng()
    # Draws stay float64 (one RNG stream in every dtype); bitwise ((u>=p)/(1-p)).astype.
    dtype = a.data.dtype
    keep = np.multiply(gen.random(a.shape) >= p, dtype.type(1.0 / (1.0 - p)), dtype=dtype)
    out_data = a.data * keep

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad * keep, owned=True)

    return Tensor._make(out_data, (a,), backward, "dropout")


Tensor.relu = relu
Tensor.sigmoid = sigmoid
Tensor.tanh = tanh
Tensor.softmax = softmax
Tensor.log_softmax = log_softmax

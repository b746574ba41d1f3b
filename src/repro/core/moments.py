"""Layer-wise hidden-feature statistics (Algorithm 1 lines 3–7, 12–13).

* ``*_np`` on plain ndarrays — used when preparing *uploads* (statistics
  leave the autograd graph; uploading tensors with history would leak
  the graph across the simulated network, and a real system would
  serialize plain buffers anyway).
* Tensor versions (differentiable) — used inside the CMD *loss*, where
  gradients must flow back into the model through the client's own
  moments.  The loss takes its means with ``Tensor.mean`` directly.

Both forms of the central moments share one kernel,
:func:`_moment_ladder`: it forms ``c, c·c, c²·c, …`` up to the highest
requested order by incremental products (no ``pow``) and reduces each
requested power over nodes.  The differentiable form,
:func:`central_moments`, keeps the lower powers for its backward pass.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.autograd import Tensor, as_tensor
from repro.autograd import signatures as _signatures

_signatures.expect("central_moments")


def layer_means_np(hidden: Sequence[np.ndarray]) -> List[np.ndarray]:
    """Per-layer feature means E(Z^l) over nodes — line 4's CalculateMean."""
    out = []
    for z in hidden:
        z = np.asarray(z)
        if z.ndim != 2:
            raise ValueError(f"hidden activations must be 2-D, got {z.shape}")
        out.append(z.mean(axis=0))
    return out


def _check_orders(orders: Sequence[int]) -> tuple:
    orders = tuple(int(j) for j in orders)
    for j in orders:
        if j < 1:
            raise ValueError("moment orders must be >= 1")
    return orders


def _moment_ladder(
    centered: np.ndarray, orders: tuple
) -> tuple[np.ndarray, List[np.ndarray]]:
    """The fused kernel: ``out[k] = mean over nodes of centered**orders[k]``.

    Walks the powers ``c¹, c², …, c^max`` once, each one product from the
    last, and reduces a power over nodes when an order asks for it.
    Returns the ``(K, d)`` moments and the powers ``[c¹ … c^{max−1}]``
    (the ones a backward pass needs); ``c^max`` is dropped after its
    reduction.
    """
    out = np.empty((len(orders), centered.shape[1]))
    top = max(orders, default=0)
    powers: List[np.ndarray] = []
    power = centered
    for j in range(1, top + 1):
        if j > 1:
            power = power * centered
        if j < top:
            powers.append(power)
        for k, order in enumerate(orders):
            if order == j:
                out[k] = power.mean(axis=0)
    return out, powers


def central_moments_np(
    z: np.ndarray, mean: np.ndarray, orders: Sequence[int]
) -> List[np.ndarray]:
    """j-th central moments of ``z`` about ``mean`` for each j in orders.

    ``mean`` may be the *local* mean (line 6, giving C_j) or the *global*
    mean received from the server (line 13, giving the S_j summands).
    """
    z = np.asarray(z, dtype=np.float64)
    mean = np.asarray(mean, dtype=np.float64)
    if z.ndim != 2 or mean.shape != (z.shape[1],):
        raise ValueError("z must be (n, d) and mean (d,)")
    out, _ = _moment_ladder(z - mean, _check_orders(orders))
    return list(out)


def central_moments(centered, orders: Sequence[int]) -> Tensor:
    """Differentiable central moments of already-centred activations.

    Returns a ``(K, d)`` tensor whose row ``k`` is the node mean of
    ``centered ** orders[k]``.  The backward pass reuses the powers the
    forward pass built:

        ∂/∂c = Σ_k (j_k / n) · g_k · c^{j_k − 1}
    """
    centered = as_tensor(centered)
    if centered.ndim != 2:
        raise ValueError("centered activations must be 2-D")
    orders = _check_orders(orders)
    c = centered.data
    out_data, powers = _moment_ladder(c, orders)
    n = c.shape[0]

    def backward(grad: np.ndarray) -> None:
        if not centered.requires_grad:
            return
        dc = np.zeros_like(c)
        term = np.empty_like(c)
        for k, j in enumerate(orders):
            scale = (grad[k] / n) * j
            if j == 1:
                dc += scale
            else:
                np.multiply(scale, powers[j - 2], out=term)
                dc += term
        centered._accumulate(dc)

    return Tensor._make(out_data, (centered,), backward, "central_moments")


def moments_tensor(z: Tensor, mean: Tensor, orders: Sequence[int]) -> List[Tensor]:
    """Differentiable central moments of ``z`` about ``mean``, one per order.

    ``mean`` is typically ``z.mean(axis=0)`` (local) — kept in the graph
    so CMD gradients include the mean's dependence on the activations.
    The rows of one fused :func:`central_moments` op.
    """
    z = as_tensor(z)
    mean = as_tensor(mean)
    if z.ndim != 2:
        raise ValueError("z must be 2-D")
    # Broadcasting (n, d) - (d,) is handled by ops_basic.sub.
    moments = central_moments(z - mean, orders)
    return [moments[k] for k in range(moments.shape[0])]


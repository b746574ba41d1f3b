"""Layer-wise hidden-feature statistics (Algorithm 1 lines 3–7, 12–13).

Plain-ndarray forms, used when preparing *uploads*: statistics leave the
autograd graph (uploading tensors with history would leak the graph
across the simulated network, and a real system would serialize plain
buffers anyway).

Every central moment in the repo comes from one kernel,
:func:`_moment_ladder`: it forms ``c, c·c, c²·c, …`` up to the highest
requested order by incremental products (no ``pow``) and reduces each
requested power over nodes (the upload path keeps no power, writing
each into one buffer in place).  The differentiable side — the CMD *loss*,
where gradients flow back into the model through the client's own
moments — is the fused Eq. 11 op :func:`repro.core.cmd.layerwise_cmd`,
which calls the same kernel and keeps its lower powers for the backward
pass.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np


def layer_means_np(hidden: Sequence[np.ndarray]) -> List[np.ndarray]:
    """Per-layer feature means E(Z^l) over nodes — line 4's CalculateMean —
    in float64 whatever the activations' dtype, like every statistic (DESIGN.md §2)."""
    out = []
    for z in hidden:
        z = np.asarray(z)
        if z.ndim != 2:
            raise ValueError(f"hidden activations must be 2-D, got {z.shape}")
        out.append(z.mean(axis=0, dtype=np.float64))
    return out


def _check_orders(orders: Sequence[int]) -> tuple:
    orders = tuple(int(j) for j in orders)
    for j in orders:
        if j < 1:
            raise ValueError("moment orders must be >= 1")
    return orders


def _moment_ladder(
    centered: np.ndarray, orders: tuple, keep_powers: bool = True
) -> tuple[np.ndarray, List[np.ndarray]]:
    """The fused kernel: ``out[k] = mean over nodes of centered**orders[k]``.

    Walks the powers ``c¹, c², …, c^max`` once, each one product from the
    last, and reduces a power over nodes when an order asks for it.
    Returns the ``(K, d)`` moments and the powers ``[c¹ … c^{max−1}]``
    (the ones a backward pass needs); ``c^max`` is dropped after its
    reduction.  With ``keep_powers=False`` (the upload path, which has
    no backward) every power past ``c¹`` is written into one ``n × d``
    buffer in place and no power is returned; the products and their
    reductions are the same, so the moments are bitwise equal.
    """
    out = np.empty((len(orders), centered.shape[1]), dtype=centered.dtype)
    top = max(orders, default=0)
    powers: List[np.ndarray] = []
    buf = None if keep_powers or top < 2 else np.empty_like(centered)
    power = centered
    for j in range(1, top + 1):
        if j > 1:
            power = power * centered if buf is None else np.multiply(power, centered, out=buf)
        if keep_powers and j < top:
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
    Computed in float64 whatever the activations' dtype.
    """
    z = np.asarray(z, dtype=np.float64)
    mean = np.asarray(mean, dtype=np.float64)
    if z.ndim != 2 or mean.shape != (z.shape[1],):
        raise ValueError("z must be (n, d) and mean (d,)")
    out, _ = _moment_ladder(z - mean, _check_orders(orders), keep_powers=False)
    return list(out)

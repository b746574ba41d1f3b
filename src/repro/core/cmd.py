"""Central Moment Discrepancy (Eq. 11, Zellinger et al. 2017).

    d_CMD(Z, Z_IID) = 1/(b−a) ‖E(Z) − E(Z_IID)‖₂
                    + Σ_{j=2}^{K} 1/|b−a|^j ‖C_j(Z) − S_j(Z_IID)‖₂

truncated at K = 5 (Algorithm 1's ``j ∈ [2..5]``).  The client side
(its own mean and moments) is differentiable; the server-side targets
are constants received through the exchange.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.autograd import Tensor, as_tensor, l2_norm
from repro.core.moments import central_moments_np, moments_tensor

DEFAULT_ORDERS = (2, 3, 4, 5)


def cmd_distance(
    z: Tensor,
    target_mean: np.ndarray,
    target_moments: Sequence[np.ndarray],
    a: float = 0.0,
    b: float = 1.0,
    orders: Sequence[int] = DEFAULT_ORDERS,
) -> Tensor:
    """Differentiable CMD between live activations ``z`` and fixed targets.

    Parameters
    ----------
    z:
        ``(n, d)`` hidden activations of one layer (in the autograd graph).
    target_mean:
        Global mean E(Z_IID) for this layer (constant, from the server).
    target_moments:
        Global central moments ``[S_2, …, S_K]`` (constants, aligned with
        ``orders``).
    a, b:
        Activation range bounds of Eq. 11 (|b−a| must be positive).
    """
    if b - a <= 0:
        raise ValueError("need b > a")
    if len(target_moments) != len(orders):
        raise ValueError("one target moment per order required")
    z = as_tensor(z)
    span = float(b - a)

    local_mean = z.mean(axis=0)
    dist = l2_norm(local_mean - Tensor(np.asarray(target_mean))) * (1.0 / span)
    local_moments = moments_tensor(z, local_mean, orders)
    for j, c_j, s_j in zip(orders, local_moments, target_moments):
        term = l2_norm(c_j - Tensor(np.asarray(s_j))) * (1.0 / span ** int(j))
        dist = dist + term
    return dist


def cmd_distance_np(
    z: np.ndarray,
    target_mean: np.ndarray,
    target_moments: Sequence[np.ndarray],
    a: float = 0.0,
    b: float = 1.0,
    orders: Sequence[int] = DEFAULT_ORDERS,
) -> float:
    """Plain-NumPy :func:`cmd_distance`: the sample ``z`` against fixed targets.

    The one NumPy form of Eq. 11, for measuring rather than training.
    """
    if b - a <= 0:
        raise ValueError("need b > a")
    if len(target_moments) != len(orders):
        raise ValueError("one target moment per order required")
    z = np.asarray(z, dtype=np.float64)
    span = float(b - a)
    mean = z.mean(axis=0)
    dist = float(np.linalg.norm(mean - target_mean)) / span
    for j, c_j, s_j in zip(orders, central_moments_np(z, mean, orders), target_moments):
        dist += float(np.linalg.norm(c_j - s_j)) / span ** int(j)
    return dist


def cmd_distance_arrays(
    z1: np.ndarray,
    z2: np.ndarray,
    a: float = 0.0,
    b: float = 1.0,
    orders: Sequence[int] = DEFAULT_ORDERS,
) -> float:
    """Plain-NumPy CMD between two empirical samples (diagnostics/tests).

    This is the textbook two-sample CMD — used to *measure* distribution
    gaps (e.g. between parties' hidden features before/after training),
    not to train.
    """
    z1 = np.asarray(z1, dtype=np.float64)
    z2 = np.asarray(z2, dtype=np.float64)
    if z1.ndim != 2 or z2.ndim != 2 or z1.shape[1] != z2.shape[1]:
        raise ValueError("samples must be 2-D with equal feature dims")
    m2 = z2.mean(axis=0)
    return cmd_distance_np(z1, m2, central_moments_np(z2, m2, orders), a=a, b=b, orders=orders)


def layerwise_cmd(
    hidden: Sequence[Tensor],
    target_means: Sequence[np.ndarray],
    target_moments: Sequence[Sequence[np.ndarray]],
    a: float = 0.0,
    b: float = 1.0,
    orders: Sequence[int] = DEFAULT_ORDERS,
) -> Tensor:
    """Σ over hidden layers of :func:`cmd_distance` — Algorithm 1 line 19.

    ``target_moments[l]`` are the global moments of layer ``l``.
    """
    if not hidden:
        raise ValueError("no hidden layers given")
    if not (len(hidden) == len(target_means) == len(target_moments)):
        raise ValueError("layer counts disagree")
    total = None
    for z, mean, moms in zip(hidden, target_means, target_moments):
        term = cmd_distance(z, mean, moms, a=a, b=b, orders=orders)
        total = term if total is None else total + term
    return total

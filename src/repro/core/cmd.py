"""Central Moment Discrepancy (Eq. 11, Zellinger et al. 2017).

    d_CMD(Z, Z_IID) = 1/(b−a) ‖E(Z) − E(Z_IID)‖₂
                    + Σ_{j=2}^{K} 1/|b−a|^j ‖C_j(Z) − S_j(Z_IID)‖₂

truncated at K = 5 (Algorithm 1's ``j ∈ [2..5]``).  The client side
(its own mean and moments) is differentiable; the server-side targets
are constants received through the exchange.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.autograd import Tensor, as_tensor
from repro.autograd import signatures as _signatures
from repro.core.moments import _check_orders, _moment_ladder, central_moments_np

_signatures.expect("cmd")

DEFAULT_ORDERS = (2, 3, 4, 5)

#: The ε under each norm's square root: ``l2_norm``'s default, which
#: keeps the gradient finite when a moment difference vanishes.
L2_EPS = 1e-12


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

    The one-layer case of :func:`layerwise_cmd`.
    """
    return layerwise_cmd([z], [target_mean], [target_moments], a=a, b=b, orders=orders)


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
    terms: Optional[List[float]] = None,
) -> Tensor:
    """Σ over hidden layers of Eq. 11 — Algorithm 1 line 19 — as one autograd op.

    ``target_moments[l]`` are the global moments of layer ``l``.  When
    ``terms`` is given, each layer's distance (the summands of the
    returned total) is appended to it.

    Per layer, the forward takes the node mean ``μ``, the centred
    activations ``c = z − μ`` and their moments by :func:`_moment_ladder`,
    and sums the ε-regularized norms of ``l2_norm`` over the differences
    ``u_0 = μ − E(Z_IID)`` and ``u_k = C_{j_k} − S_{j_k}``, each weighted
    by ``w = 1/|b−a|^j``.  For an output gradient ``g`` the backward is
    the analytic VJP (DESIGN.md §3.1)::

        v_k = g·w_k·u_k / ‖u_k‖_ε
        dc  = Σ_k (j_k/n) · v_k ⊙ c^{j_k−1}
        dz  = dc + (v_0 − Σ_rows dc) / n

    Both directions do the arithmetic of the op chain mean, sub,
    moments, sub, ``l2_norm``, mul, add in its order, and ``dc`` and the
    mean's row land on ``z``'s gradient as two accumulations, centring
    first: value and gradients are bitwise that chain's, also where
    ``z`` feeds other ops.
    """
    if b - a <= 0:
        raise ValueError("need b > a")
    if not hidden:
        raise ValueError("no hidden layers given")
    if not (len(hidden) == len(target_means) == len(target_moments)):
        raise ValueError("layer counts disagree")
    orders = _check_orders(orders)
    span = float(b - a)
    weights = (1.0 / span,) + tuple(1.0 / span ** j for j in orders)
    parents: List[Tensor] = []
    saved = []
    total = None
    for z, mean, moms in zip(hidden, target_means, target_moments):
        if len(moms) != len(orders):
            raise ValueError("one target moment per order required")
        z = as_tensor(z)
        if z.ndim != 2:
            raise ValueError("hidden activations must be 2-D")
        # Row 0 the target mean, row 1 + k the target moment of orders[k]:
        # float64 statistics, cast once to the activations' dtype.
        targets = np.vstack([np.asarray(mean)] + list(moms)).astype(z.data.dtype, copy=False)
        local_mean = z.data.mean(axis=0)
        moments, powers = _moment_ladder(z.data - local_mean, orders)
        diffs = [local_mean - targets[0]] + [m - t for m, t in zip(moments, targets[1:])]
        norms = [float(np.sqrt(float((u * u).sum()) + L2_EPS)) for u in diffs]
        dist = norms[0] * weights[0]
        for norm, w in zip(norms[1:], weights[1:]):
            dist = dist + norm * w
        total = dist if total is None else total + dist
        if terms is not None:
            terms.append(float(dist))
        parents += [z, Tensor(targets)]
        saved.append((z, powers, diffs, norms))

    def backward(grad: np.ndarray) -> None:
        for z, powers, diffs, norms in saved:
            if not z.requires_grad:
                continue
            n = z.data.shape[0]
            v = [float(grad * w) * u / norm for w, u, norm in zip(weights, diffs, norms)]
            dc = np.zeros_like(z.data)
            term = np.empty_like(dc)
            for k, j in enumerate(orders):
                scale = (v[k + 1] / n) * j
                if j == 1:
                    dc += scale
                else:
                    np.multiply(scale, powers[j - 2], out=term)
                    dc += term
            mean_grad = (v[0] - dc.sum(axis=0)) / n
            z._accumulate(dc, owned=True)
            z._accumulate(np.broadcast_to(mean_grad, dc.shape))

    return Tensor._make(np.asarray(total, dtype=z.data.dtype), tuple(parents), backward, "cmd")

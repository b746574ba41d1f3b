"""OrthoConv: the paper's orthogonal hidden layer (Eq. 8, Table 1).

Operational definition (DESIGN.md §2): the hidden transformation is

    Z^l = σ( S̃ Z^{l-1} W̃_l ),     W̃_l = W_l / ‖W_l‖_F · √d_h

with W_l a *square* d_h×d_h weight held near the orthogonal manifold by

* the soft penalty of Eq. 6 (``orthogonality_loss`` on the raw ``W_l``,
  scaled by α in the total loss), and
* optionally, a periodic Newton–Schulz projection
  (:func:`newton_schulz_orthogonalize`) — the "Newton iteration"
  referenced by §4.3 via Ortho-GCN [11].

The √d_h factor restores unit scale: a d×d orthogonal matrix has
Frobenius norm √d, so plain division by ‖W‖_F would shrink activations
by √d per layer and starve deep stacks (Table 7 goes to 10 hidden
layers).  With the factor, an exactly-orthogonal W̃ is orthogonal again.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.autograd import Tensor, matmul, spmm

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graphs.csr import CSRMatrix
from repro.autograd.ops_reduce import frobenius_norm
from repro.nn import init as init_mod
from repro.nn.module import Module, Parameter


def newton_schulz_orthogonalize(w: np.ndarray, iterations: int = 8) -> np.ndarray:
    """Project a square matrix toward the nearest orthogonal matrix.

    Newton–Schulz iteration ``Y ← 1.5·Y − 0.5·Y Yᵀ Y`` converges
    quadratically to the orthogonal polar factor when ‖YᵀY − I‖₂ < 1;
    we pre-scale by the spectral-norm estimate to guarantee entry into
    the convergence region.  Pure NumPy, O(d³) per iteration on d×d —
    negligible next to the graph propagation for d_h = 64.  A floating
    ``w`` keeps its dtype; anything else is taken as float64.
    """
    w = np.asarray(w)
    if w.dtype.kind != "f":
        w = w.astype(np.float64)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError(f"expected a square matrix, got {w.shape}")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    # Scale into the convergence basin: ‖Y‖₂ ≤ √(‖·‖₁‖·‖∞) ≥ σ_max.
    norm = np.sqrt(np.abs(w).sum(axis=0).max() * np.abs(w).sum(axis=1).max())
    if norm == 0:
        raise ValueError("cannot orthogonalize the zero matrix")
    y = w / norm
    for _ in range(iterations):
        y = 1.5 * y - 0.5 * (y @ y.T @ y)
    return y


class OrthoConv(Module):
    """Hidden orthogonal graph convolution ``Z^l = S̃ Z^{l-1} W̃`` (Eq. 8).

    Parameters
    ----------
    features:
        Hidden width d_h (input and output — the weight is square).
    init:
        Initializer; ``"orthogonal"`` starts Eq. 6's penalty at zero.
    rng:
        Seeded generator.

    Notes
    -----
    The Frobenius normalization W̃ = √d_h · W/‖W‖_F is part of the
    *graph*, i.e. gradients flow through the normalization (quotient
    rule handled by autograd), matching Q̃ = Q/‖Q‖_F in Eq. 8.
    """

    def __init__(
        self,
        features: int,
        init: str = "orthogonal",
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if features <= 0:
            raise ValueError("features must be positive")
        gen = rng if rng is not None else np.random.default_rng()
        self.features = features
        self.weight = Parameter(init_mod.get(init)(features, features, gen))
        self._scale = float(np.sqrt(features))

    def normalized_weight(self) -> Tensor:
        """W̃ = √d_h · W / ‖W‖_F (differentiable)."""
        return self.weight * (self._scale / frobenius_norm(self.weight))

    def forward(self, s_norm: "CSRMatrix", z: Tensor) -> Tensor:
        return spmm(s_norm, matmul(z, self.normalized_weight()))

    def project_orthogonal(self, iterations: int = 8) -> None:
        """Hard Newton–Schulz projection of the raw weight (in place).

        Called between optimizer steps by the hard-orthogonality
        training mode; a no-op for the default soft-penalty mode.
        """
        self.weight.data[...] = newton_schulz_orthogonalize(self.weight.data, iterations)

    def orthogonality_residual(self) -> float:
        """‖W Wᵀ − I‖_F of the raw weight (diagnostic/metric)."""
        w = self.weight.data
        return float(np.linalg.norm(w @ w.T - np.eye(self.features)))

    def __repr__(self) -> str:  # pragma: no cover
        return f"OrthoConv({self.features})"

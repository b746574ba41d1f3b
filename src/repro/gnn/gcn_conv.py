"""Kipf–Welling graph convolution."""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Union

import numpy as np

from repro.autograd import Tensor, matmul, spmm

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graphs.csr import CSRMatrix
from repro.nn import init as init_mod
from repro.nn.module import Module, Parameter


class GCNConv(Module):
    """One graph convolution: ``Z' = S̃ (Z W) + b``.

    ``S̃`` is the symmetric-normalized adjacency (a constant per graph),
    passed at call time so one layer instance can serve any subgraph —
    the federated clients all share the layer *shape* but own different
    propagation matrices.  Pass the graph's cached
    :class:`~repro.graphs.csr.CSRMatrix` (``graph.s_op``).

    The input ``z`` is one of two kinds:

    * a dense :class:`~repro.autograd.Tensor` (hidden activations).  The
      multiply order ``S̃ (Z W)`` (transform then propagate) costs
      O(n·d_in·d_out + nnz·d_out); the other order would pay
      O(nnz·d_in + n·d_in·d_out) — cheaper only when d_out > d_in, so we
      pick per-call based on the shapes.
    * a constant :class:`~repro.graphs.csr.CSRMatrix` (``graph.x``, the
      sparse bag-of-words features every first layer takes).  The layer
      computes ``S̃ (Z W)`` with two sparse products, O(nnz_z·d_out +
      nnz·d_out), and the weight gradient Zᵀ·G reads Z's own CSR arrays.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        init: str = "xavier_uniform",
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("feature dimensions must be positive")
        gen = rng if rng is not None else np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init_mod.get(init)(in_features, out_features, gen))
        self.bias = Parameter(init_mod.zeros(out_features)) if bias else None

    def forward(self, s_norm: "CSRMatrix", z: Union[Tensor, "CSRMatrix"]) -> Tensor:
        if getattr(z, "is_kernel_operator", False):
            out = spmm(s_norm, spmm(z, self.weight))
        elif self.out_features <= self.in_features:
            out = spmm(s_norm, matmul(z, self.weight))
        else:
            out = matmul(spmm(s_norm, z), self.weight)
        if self.bias is not None:
            out = out + self.bias
        return out

    def __repr__(self) -> str:  # pragma: no cover
        return f"GCNConv({self.in_features}, {self.out_features})"

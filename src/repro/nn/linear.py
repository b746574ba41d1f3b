"""Dense affine layer."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.autograd import Tensor, matmul
from repro.nn import init as init_mod
from repro.nn.module import Module, Parameter


class Linear(Module):
    """``y = x @ W + b``; ``x`` may be a graph's sparse features (``spmm``).

    Parameters
    ----------
    in_features, out_features:
        Input/output dimensionality.
    bias:
        Include an additive bias (default True).
    init:
        Initializer name from :mod:`repro.nn.init` (default
        ``"xavier_uniform"``, the GCN-reference choice).
    rng:
        Seeded generator; required for reproducible federated runs where
        all clients must start from the *same* global model.
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

    def forward(self, x: Tensor) -> Tensor:
        out = matmul(x, self.weight)
        if self.bias is not None:
            out = out + self.bias
        return out

    def __repr__(self) -> str:  # pragma: no cover
        return f"Linear({self.in_features}, {self.out_features}, bias={self.bias is not None})"

"""GraphSAGE mean-aggregator convolution (FedSage+'s local model)."""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.autograd import Tensor, concat, matmul, spmm

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graphs.csr import CSRMatrix
from repro.nn import init as init_mod
from repro.nn.module import Module, Parameter


class SAGEConv(Module):
    """GraphSAGE-mean: ``Z' = [Z ‖ mean_N(Z)] W + b``.

    ``mean_N`` is the row-normalized (A+I) product, supplied by the
    caller as a constant :class:`~repro.graphs.csr.CSRMatrix` (the
    graph's ``mean_op``).
    Self and neighbor representations are concatenated as in Hamilton
    et al. (2017), giving the layer twice the input width.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("feature dimensions must be positive")
        gen = rng if rng is not None else np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init_mod.xavier_uniform(2 * in_features, out_features, gen))
        self.bias = Parameter(init_mod.zeros(out_features)) if bias else None

    def forward(self, mean_adj: "CSRMatrix", z: Tensor) -> Tensor:
        agg = spmm(mean_adj, z)
        out = matmul(concat([z, agg], axis=1), self.weight)
        if self.bias is not None:
            out = out + self.bias
        return out

    def __repr__(self) -> str:  # pragma: no cover
        return f"SAGEConv({self.in_features}, {self.out_features})"

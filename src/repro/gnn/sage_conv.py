"""GraphSAGE mean-aggregator convolution (FedSage+'s local model)."""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Union

import numpy as np

from repro.autograd import Tensor, matmul, spmm

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graphs.csr import CSRMatrix
from repro.nn import init as init_mod
from repro.nn.module import Module, Parameter


def sage_mean(
    mean_adj: "CSRMatrix", z, weight: Tensor, bias: Optional[Tensor], times=matmul
) -> Tensor:
    """``[Z ‖ mean_N(Z)] W + b`` as ``Z W[:d] + mean_N (Z W[d:]) + b`` (``d``: Z's width).

    The split builds no concatenation, so ``Z`` may be a dense tensor or
    a graph's sparse features (``matmul`` is then ``spmm``).  ``times(z,
    w)`` forms each ``Z·w``; FedSage+ passes one that multiplies a
    mended graph's generated dense rows apart from its sparse rows.
    """
    d = z.shape[1]
    out = times(z, weight[:d]) + spmm(mean_adj, times(z, weight[d:]))
    if bias is not None:
        out = out + bias
    return out


class SAGEConv(Module):
    """GraphSAGE-mean: ``Z' = [Z ‖ mean_N(Z)] W + b``.

    ``mean_N`` is the row-normalized (A+I) product, supplied by the
    caller as a constant :class:`~repro.graphs.csr.CSRMatrix` (the
    graph's ``mean_op``).
    Self and neighbor representations are concatenated as in Hamilton
    et al. (2017), giving the weight twice the input width (see
    :func:`sage_mean`).
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

    def forward(self, mean_adj: "CSRMatrix", z: Union[Tensor, "CSRMatrix"]) -> Tensor:
        return sage_mean(mean_adj, z, self.weight, self.bias)

    def __repr__(self) -> str:  # pragma: no cover
        return f"SAGEConv({self.in_features}, {self.out_features})"

"""Graph attention convolution (Veličković et al. 2018), single head.

Composed entirely from differentiable primitives (gather / scatter_add /
leaky_relu / exp), so the edge softmax needs no bespoke backward:

    e_uv = LeakyReLU( (h_u W)·a_src + (h_v W)·a_dst )      per edge u→v
    α_uv = exp(e_uv − max_v) / Σ_{u'∈N(v)} exp(e_u'v − max_v)
    h'_v = Σ_u α_uv (h_u W)

Self-loops are added so every node attends at least to itself.  Listed
in the paper's related work; provided here as an alternative local
backbone for the backbone-sweep extension ablation.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.autograd import Tensor, leaky_relu, matmul, scatter_add
from repro.nn import init as init_mod
from repro.nn.module import Module, Parameter


class GATConv(Module):
    """Single-head graph attention layer."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        negative_slope: float = 0.2,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("feature dimensions must be positive")
        gen = rng if rng is not None else np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.negative_slope = negative_slope
        self.weight = Parameter(init_mod.xavier_uniform(in_features, out_features, gen))
        self.att_src = Parameter(init_mod.xavier_uniform(out_features, 1, gen).ravel())
        self.att_dst = Parameter(init_mod.xavier_uniform(out_features, 1, gen).ravel())
        self.bias = Parameter(init_mod.zeros(out_features))

    @staticmethod
    def edge_index(adj) -> tuple:
        """(src, dst) arrays including self loops of a scipy matrix or CSRMatrix."""
        import scipy.sparse as sp

        n = adj.shape[0]
        coo = sp.coo_matrix(adj.to_scipy() if hasattr(adj, "to_scipy") else adj)
        src = np.concatenate([coo.row, np.arange(n)])
        dst = np.concatenate([coo.col, np.arange(n)])
        return src.astype(np.int64), dst.astype(np.int64)

    def forward(self, edges: tuple, z: Tensor) -> Tensor:
        src, dst = edges
        n = z.shape[0]
        h = matmul(z, self.weight)  # (n, d_out); spmm for sparse features
        # Per-node attention scores, gathered onto edges.
        score_src = (h * self.att_src).sum(axis=1, keepdims=True)  # (n, 1)
        score_dst = (h * self.att_dst).sum(axis=1, keepdims=True)
        e = leaky_relu(score_src[src] + score_dst[dst], self.negative_slope)  # (m, 1)

        # Numerically-stable per-destination softmax: subtract the
        # segment max (a constant w.r.t. the graph — safe to detach).
        seg_max = np.full((n, 1), -np.inf, dtype=e.data.dtype)
        np.maximum.at(seg_max, dst, e.data)
        ex = (e - Tensor(seg_max[dst])).exp()  # (m, 1)
        denom = scatter_add(ex, dst, n)  # (n, 1)
        alpha = ex / (denom[dst] + 1e-16)  # (m, 1)

        messages = h[src] * alpha  # (m, d_out)
        out = scatter_add(messages, dst, n)
        return out + self.bias

    def __repr__(self) -> str:  # pragma: no cover
        return f"GATConv({self.in_features}, {self.out_features})"

"""Node-classification models.

Every model exposes two entry points:

* ``forward(graph) -> logits`` — raw class scores per node.
* ``forward_with_hidden(graph) -> (logits, hidden)`` — additionally the
  list of hidden activations ``[Z^1, …, Z^{L-1}]`` that Algorithm 1's
  moment exchange consumes.  Models without meaningful hidden graph
  representations (MLP) return their post-activation hidden layers.

Models receive the :class:`~repro.graphs.data.Graph` (not raw tensors)
so each can pick its propagation operator: GCN/Ortho use ``graph.s_op``
(the cached fused-kernel CSR container of S̃), SAGE uses ``graph.mean_op``
(the row-normalized mean aggregator).  OrthoGCN's first layer takes the
sparse bag-of-words features ``graph.x``, a CSR container itself; the
other models read the cached dense copy ``graph.x_dense``.  Every
container is built once per graph and carries a pre-transposed
reverse-CSR, so propagation never pays a sparse conversion — forward
or backward — after the first touch.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.autograd import Tensor, dropout, relu, spmm
from repro.graphs.data import Graph
from repro.nn import Linear
from repro.nn.module import Module
from repro.gnn.gcn_conv import GCNConv
from repro.gnn.ortho import OrthoConv
from repro.gnn.sage_conv import SAGEConv


class MLP(Module):
    """2-layer perceptron — the FedMLP baseline (hidden dim 64, §5.1)."""

    def __init__(
        self,
        in_features: int,
        num_classes: int,
        hidden: int = 64,
        dropout_p: float = 0.5,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        gen = rng if rng is not None else np.random.default_rng()
        self.fc1 = Linear(in_features, hidden, rng=gen)
        self.fc2 = Linear(hidden, num_classes, rng=gen)
        self.dropout_p = dropout_p
        self._rng = gen

    def forward_with_hidden(self, graph: Graph) -> Tuple[Tensor, List[Tensor]]:
        x = Tensor(graph.x_dense)
        h = relu(self.fc1(x))
        hid = [h]
        h = dropout(h, self.dropout_p, rng=self._rng, training=self.training)
        return self.fc2(h), hid

    def forward(self, graph: Graph) -> Tensor:
        return self.forward_with_hidden(graph)[0]


class GCN(Module):
    """2-layer GCN — the LocGCN / FedGCN local model."""

    def __init__(
        self,
        in_features: int,
        num_classes: int,
        hidden: int = 64,
        dropout_p: float = 0.5,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        gen = rng if rng is not None else np.random.default_rng()
        self.conv1 = GCNConv(in_features, hidden, rng=gen)
        self.conv2 = GCNConv(hidden, num_classes, rng=gen)
        self.dropout_p = dropout_p
        self._rng = gen

    def forward_with_hidden(self, graph: Graph) -> Tuple[Tensor, List[Tensor]]:
        s = graph.s_op
        h = relu(self.conv1(s, Tensor(graph.x_dense)))
        hid = [h]
        h = dropout(h, self.dropout_p, rng=self._rng, training=self.training)
        return self.conv2(s, h), hid

    def forward(self, graph: Graph) -> Tensor:
        return self.forward_with_hidden(graph)[0]


class SGC(Module):
    """Simplified GCN (Wu et al. 2019): S̃^k X W — no nonlinearity.

    Used by tests as the linear reference the paper's Eq. 5 derivation
    assumes ("without considering the activation function … as SGC did").
    """

    def __init__(
        self,
        in_features: int,
        num_classes: int,
        k: int = 2,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if k < 1:
            raise ValueError("k must be >= 1")
        gen = rng if rng is not None else np.random.default_rng()
        self.k = k
        self.fc = Linear(in_features, num_classes, rng=gen)

    def forward(self, graph: Graph) -> Tensor:
        h = Tensor(graph.x_dense)
        for _ in range(self.k):
            h = spmm(graph.s_op, h)
        return self.fc(h)

    def forward_with_hidden(self, graph: Graph) -> Tuple[Tensor, List[Tensor]]:
        return self.forward(graph), []


class SAGE(Module):
    """2-layer GraphSAGE-mean — FedSage+'s classifier."""

    def __init__(
        self,
        in_features: int,
        num_classes: int,
        hidden: int = 64,
        dropout_p: float = 0.5,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        gen = rng if rng is not None else np.random.default_rng()
        self.conv1 = SAGEConv(in_features, hidden, rng=gen)
        self.conv2 = SAGEConv(hidden, num_classes, rng=gen)
        self.dropout_p = dropout_p
        self._rng = gen

    def forward_with_hidden(self, graph: Graph) -> Tuple[Tensor, List[Tensor]]:
        # The aggregator is cached on the graph itself (graph.mean_op),
        # not in a model-side id(graph) dict: ids recycle after GC, which
        # aliased a new graph to a dead graph's operator.
        m = graph.mean_op
        h = relu(self.conv1(m, Tensor(graph.x_dense)))
        hid = [h]
        h = dropout(h, self.dropout_p, rng=self._rng, training=self.training)
        return self.conv2(m, h), hid

    def forward(self, graph: Graph) -> Tensor:
        return self.forward_with_hidden(graph)[0]


class APPNP(Module):
    """Predict-then-propagate (Klicpera et al. 2019).

    An MLP predicts per-node logits H; personalized-PageRank propagation
    smooths them:  Z ← (1−α_tp)·S̃ Z + α_tp·H, iterated ``k`` times.
    Decouples feature transformation from propagation depth — a backbone
    alternative for the extension ablation.
    """

    def __init__(
        self,
        in_features: int,
        num_classes: int,
        hidden: int = 64,
        k: int = 10,
        teleport: float = 0.1,
        dropout_p: float = 0.5,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if k < 1:
            raise ValueError("k must be >= 1")
        if not 0.0 < teleport <= 1.0:
            raise ValueError("teleport must be in (0, 1]")
        gen = rng if rng is not None else np.random.default_rng()
        self.fc1 = Linear(in_features, hidden, rng=gen)
        self.fc2 = Linear(hidden, num_classes, rng=gen)
        self.k = k
        self.teleport = teleport
        self.dropout_p = dropout_p
        self._rng = gen

    def forward_with_hidden(self, graph: Graph) -> Tuple[Tensor, List[Tensor]]:
        x = Tensor(graph.x_dense)
        hid1 = relu(self.fc1(x))
        h = self.fc2(dropout(hid1, self.dropout_p, rng=self._rng, training=self.training))
        z = h
        s = graph.s_op
        for _ in range(self.k):
            z = spmm(s, z) * (1.0 - self.teleport) + h * self.teleport
        return z, [hid1]

    def forward(self, graph: Graph) -> Tensor:
        return self.forward_with_hidden(graph)[0]


class GAT(Module):
    """2-layer single-head graph attention network."""

    def __init__(
        self,
        in_features: int,
        num_classes: int,
        hidden: int = 64,
        dropout_p: float = 0.5,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        from repro.gnn.gat_conv import GATConv

        gen = rng if rng is not None else np.random.default_rng()
        self.conv1 = GATConv(in_features, hidden, rng=gen)
        self.conv2 = GATConv(hidden, num_classes, rng=gen)
        self.dropout_p = dropout_p
        self._rng = gen

    def forward_with_hidden(self, graph: Graph) -> Tuple[Tensor, List[Tensor]]:
        # Cached on the graph (graph.edge_index), not keyed on id(graph);
        # see SAGE.forward_with_hidden.
        edges = graph.edge_index
        h = relu(self.conv1(edges, Tensor(graph.x_dense)))
        hid = [h]
        h = dropout(h, self.dropout_p, rng=self._rng, training=self.training)
        return self.conv2(edges, h), hid

    def forward(self, graph: Graph) -> Tensor:
        return self.forward_with_hidden(graph)[0]


class OrthoGCN(Module):
    """Table 1's orthogonal graph network.

    Layer stack for ``num_hidden`` hidden layers:

        GCNConv(d_in → d_h) → ReLU
        [ OrthoConv(d_h) → ReLU ] × (num_hidden − 1)
        GCNConv(d_h → d_out)

    With ``num_hidden = 2`` (the paper's default) this is:
    GCNConv, OrthoConv, GCNConv — matching Table 1's order column
    (first layer 0→1 GCNConv, hidden OrthoConv rows, final GCNConv).
    ``forward_with_hidden`` returns every post-ReLU hidden activation —
    the ``[Z^1, …, Z^{l-1}]`` of Algorithm 1 line 3.

    ``feature_rows`` names the parameter whose rows index the sparse
    input features: a party keeps only the rows of the feature columns
    it has (see :class:`~repro.federated.client.Client`).  The
    dense-input models declare none and always hold every row.
    """

    feature_rows = "conv_in.weight"

    def __init__(
        self,
        in_features: int,
        num_classes: int,
        hidden: int = 64,
        num_hidden: int = 2,
        dropout_p: float = 0.5,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if num_hidden < 1:
            raise ValueError("num_hidden must be >= 1 (Table 7 sweeps 2..10)")
        gen = rng if rng is not None else np.random.default_rng()
        self.num_hidden = num_hidden
        self.conv_in = GCNConv(in_features, hidden, rng=gen)
        self.ortho_layers: List[OrthoConv] = []
        for i in range(num_hidden - 1):
            layer = OrthoConv(hidden, rng=gen)
            self.add_module(f"ortho{i}", layer)
            self.ortho_layers.append(layer)
        self.conv_out = GCNConv(hidden, num_classes, rng=gen)
        self.dropout_p = dropout_p
        self._rng = gen

    def forward_with_hidden(self, graph: Graph) -> Tuple[Tensor, List[Tensor]]:
        s = graph.s_op
        h = relu(self.conv_in(s, graph.x))
        hidden = [h]
        for layer in self.ortho_layers:
            h = dropout(h, self.dropout_p, rng=self._rng, training=self.training)
            h = relu(layer(s, h))
            hidden.append(h)
        h = dropout(h, self.dropout_p, rng=self._rng, training=self.training)
        logits = self.conv_out(s, h)
        return logits, hidden

    def forward(self, graph: Graph) -> Tensor:
        return self.forward_with_hidden(graph)[0]

    def ortho_weights(self) -> List[Tensor]:
        """Raw hidden weights entering Eq. 6's penalty."""
        return [layer.weight for layer in self.ortho_layers]

    def project_orthogonal(self, iterations: int = 8) -> None:
        """Hard-orthogonalize every hidden weight (ablation mode)."""
        for layer in self.ortho_layers:
            layer.project_orthogonal(iterations)

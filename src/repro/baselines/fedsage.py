"""FedSage+ (Zhang et al., NeurIPS 2021) — reimplemented in structure.

The original repairs the information lost to cross-party edge cuts:
each client trains a *NeighGen* generator that predicts, per node, how
many neighbors are missing and what their features look like; the local
graph is then "mended" with generated neighbors and a GraphSAGE
classifier is trained federated over the mended graphs.  The "+"
variant additionally trains the generators against other parties'
feature distributions.

Our reimplementation keeps the full pipeline on our substrate:

1. **Hide-and-train** (per client, pre-federation): hide a fraction of
   each node's edges; NeighGen (a 1-layer SAGE encoder + a degree head
   + a feature head) learns to predict the hidden-neighbor count
   (smooth-L1 on degree) and the mean hidden-neighbor feature (MSE).
2. **Cross-party feature signal** (the "+"): NeighGen weights are
   FedAvg'd across parties during generator training, so every
   generator absorbs all parties' neighborhood statistics — this is the
   documented simplification of the original's cross-client gradient
   exchange (DESIGN.md §2): both mechanisms make each generator fit
   *other* parties' feature distributions; averaging is the weaker but
   structurally equivalent channel.
3. **Mending**: each node with predicted missing degree ≥ 0.5 gets that
   many generated neighbor nodes (features from the feature head +
   learned noise), connected only to it.  The generated features are
   dense; they stay apart from the party's sparse features
   (:class:`MendedGraph`).
4. **Classification**: federated GraphSAGE on the mended graphs via the
   standard loop (:class:`MendedSAGE`).

The failure mode §5.2 reports — needing "massive samples … to maintain
sampling effectiveness" at a 1% label rate — emerges naturally: the
degree/feature heads train on *structural* supervision (plentiful), but
the classifier sees generated, unlabeled neighbors whose quality is
only as good as the tiny labeled set's embedding space.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Union

import numpy as np

from repro.autograd import Tensor, concat, dropout, matmul, no_grad, relu, spmm
from repro.federated.server import fedavg
from repro.federated.trainer import FederatedTrainer, TrainerConfig
from repro.graphs.csr import CSRMatrix, symmetric_adjacency, upper_triangle
from repro.graphs.data import Graph
from repro.graphs.laplacian import row_normalized_adjacency
from repro.nn import Adam, Linear, mse_loss
from repro.nn.module import Module
from repro.gnn import SAGE
from repro.gnn.sage_conv import sage_mean


class NeighGen(Module):
    """Missing-neighbor generator: encoder → (degree head, feature head)."""

    def __init__(self, in_features: int, hidden: int, rng: np.random.Generator):
        super().__init__()
        self.enc = Linear(2 * in_features, hidden, rng=rng)
        self.deg_head = Linear(hidden, 1, rng=rng)
        self.feat_head = Linear(hidden, in_features, rng=rng)

    def encode(self, mean_adj: CSRMatrix, x: Union[Tensor, CSRMatrix]) -> Tensor:
        """``relu([X ‖ mean_N(X)] W_enc + b)``: one SAGE-mean layer."""
        return relu(sage_mean(mean_adj, x, self.enc.weight, self.enc.bias))

    def forward(self, mean_adj: CSRMatrix, x: Union[Tensor, CSRMatrix]):
        h = self.encode(mean_adj, x)
        missing_deg = relu(self.deg_head(h))  # non-negative counts
        feats = self.feat_head(h)
        return missing_deg, feats


def hide_edges(graph: Graph, frac: float, rng: np.random.Generator):
    """Randomly hide ``frac`` of edges; return (visible graph, hidden info).

    Hidden info per node: the count of hidden incident edges and the mean
    feature of hidden neighbors — NeighGen's training targets.
    """
    if not 0.0 < frac < 1.0:
        raise ValueError("frac must be in (0, 1)")
    row, col = upper_triangle(graph.adj)
    if len(row) == 0:
        raise ValueError("graph has no edges to hide")
    hide = rng.random(len(row)) < frac
    vis = symmetric_adjacency(row[~hide], col[~hide], graph.num_nodes)
    hid = symmetric_adjacency(row[hide], col[hide], graph.num_nodes)
    hidden_count = hid.row_sums()
    # Each node's hidden-neighbour feature sum, one sparse product.
    hidden_feat_sum = (hid.to_scipy() @ graph.x.to_scipy()).toarray()
    denom = np.maximum(hidden_count, 1.0)[:, None]
    hidden_feat_mean = hidden_feat_sum / denom

    visible = Graph(
        x=graph.x,
        adj=vis,
        y=graph.y,
        num_classes=graph.num_classes,
        train_mask=graph.train_mask,
        val_mask=graph.val_mask,
        test_mask=graph.test_mask,
        name=f"{graph.name}-visible",
    )
    return visible, hidden_count, hidden_feat_mean


@dataclass
class MendedGraph(Graph):
    """A party's graph with generated neighbour nodes appended after its own.

    ``x`` holds the party's sparse feature rows and no entry for a
    generated node, so every reader of ``x`` sees the party's own
    features only.  ``x_gen`` holds the generated nodes' dense feature
    rows, in node order.
    """

    x_gen: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    def times(self, x: CSRMatrix, w: Tensor) -> Tensor:
        """``X·w`` over every node: ``spmm`` on the party's sparse rows
        (``x``), ``matmul`` on the generated dense rows."""
        gen = matmul(self.x_gen, w)
        own = np.zeros((self.num_nodes - len(self.x_gen), gen.shape[1]), dtype=gen.data.dtype)
        return spmm(x, w) + concat([own, gen])


def mend_graph(graph: Graph, missing_deg: np.ndarray, gen_feats: np.ndarray, max_new_per_node: int = 3) -> Graph:
    """Append generated neighbor nodes per the degree predictions.

    Generated nodes carry label 0 but are excluded from every mask, so
    they influence propagation only — exactly the original's usage.
    Their features go to the :class:`MendedGraph`'s ``x_gen``.
    """
    n = graph.num_nodes
    counts = np.minimum(np.round(missing_deg).astype(int).clip(min=0), max_new_per_node)
    total_new = int(counts.sum())
    if total_new == 0:
        return graph
    hosts = np.repeat(np.arange(n), counts)
    new_ids = np.arange(n, n + total_new)

    row, col = upper_triangle(graph.adj)
    adj = symmetric_adjacency(np.append(row, hosts), np.append(col, new_ids), n + total_new)

    def pad(mask):
        if mask is None:
            return None
        out = np.zeros(n + total_new, dtype=bool)
        out[:n] = mask
        return out

    x = graph.x
    indptr = np.append(x.indptr, np.full(total_new, x.indptr[-1], x.indptr.dtype))
    return MendedGraph(
        x=CSRMatrix(x.data, x.indices, indptr, (n + total_new, graph.num_features)),
        adj=adj,
        y=np.concatenate([graph.y, np.zeros(total_new, dtype=int)]),
        num_classes=graph.num_classes,
        train_mask=pad(graph.train_mask),
        val_mask=pad(graph.val_mask),
        test_mask=pad(graph.test_mask),
        name=f"{graph.name}-mended",
        x_gen=np.repeat(np.asarray(gen_feats, dtype=graph.x.dtype), counts, axis=0),
    )


class MendedSAGE(SAGE):
    """FedSage+'s classifier: on a :class:`MendedGraph` the first layer
    multiplies the generated dense rows apart from the sparse ones
    (:meth:`MendedGraph.times`); on any other graph it is :class:`SAGE`."""

    def forward_with_hidden(self, graph: Graph):
        if not isinstance(graph, MendedGraph):
            return super().forward_with_hidden(graph)
        m, conv = graph.mean_op, self.conv1
        h = relu(sage_mean(m, graph.x, conv.weight, conv.bias, times=graph.times))
        hid = [h]
        h = dropout(h, self.dropout_p, rng=self._rng, training=self.training)
        return self.conv2(m, h), hid


class FedSagePlusTrainer(FederatedTrainer):
    """NeighGen pre-training + mended-graph federated GraphSAGE."""

    name = "fedsage+"

    def __init__(
        self,
        parts,
        config: Optional[TrainerConfig] = None,
        seed: int = 0,
        gen_epochs: int = 30,
        gen_fed_every: int = 5,
        hide_frac: float = 0.3,
        max_new_per_node: int = 3,
    ):
        self.gen_epochs = gen_epochs
        self.gen_fed_every = gen_fed_every
        self.hide_frac = hide_frac
        self.max_new_per_node = max_new_per_node
        self._gen_rng = np.random.default_rng(seed + 77)
        # Build and train generators, mend graphs, THEN hand the mended
        # graphs to the standard federated loop.
        mended = self._pretrain_and_mend(parts, config, seed)
        super().__init__(mended, config, seed=seed)

    # -- phase 1+2+3 ------------------------------------------------------
    def _pretrain_and_mend(self, parts, config, seed) -> List[Graph]:
        cfg = config or TrainerConfig()
        gens: List[NeighGen] = []
        opts: List[Adam] = []
        data = []
        for g in parts:
            # The generator trains in the party's dtype, like the classifier.
            dtype = g.x.dtype
            gen = NeighGen(g.num_features, cfg.hidden, np.random.default_rng(seed)).astype(dtype)
            gens.append(gen)
            opts.append(Adam(gen.parameters(), lr=0.01))
            try:
                visible, h_count, h_feat = hide_edges(g, self.hide_frac, self._gen_rng)
                mean_op = row_normalized_adjacency(visible.adj, dtype)
            except ValueError:
                h_count, h_feat = np.zeros(g.num_nodes), np.zeros(g.x.shape)
                mean_op = row_normalized_adjacency(g.adj, dtype)
            # One CSR container per party for the whole generator
            # pre-training.  The visible graph keeps every node's
            # features, so g's sparse features serve it.
            data.append((g.x, mean_op, h_count.astype(dtype), h_feat.astype(dtype)))

        for epoch in range(self.gen_epochs):
            for gen, opt, (x, mean_adj, h_count, h_feat) in zip(gens, opts, data):
                gen.train()
                opt.zero_grad()
                deg_pred, feat_pred = gen(mean_adj, x)
                deg_loss = mse_loss(deg_pred, h_count[:, None])
                feat_loss = mse_loss(feat_pred, h_feat)
                (deg_loss + feat_loss).backward()
                opt.step()
            # The "+": federate generator weights periodically so each
            # absorbs all parties' neighborhood statistics.
            if (epoch + 1) % self.gen_fed_every == 0:
                avg = fedavg([gen.state_dict() for gen in gens])
                for gen in gens:
                    gen.load_state_dict(avg)

        mended = []
        for g, gen in zip(parts, gens):
            gen.eval()
            full_mean_adj = row_normalized_adjacency(g.adj, g.x.dtype)
            with no_grad():
                deg_pred, feat_pred = gen(full_mean_adj, g.x)
            mended.append(
                mend_graph(
                    g,
                    deg_pred.data.ravel(),
                    feat_pred.data,
                    max_new_per_node=self.max_new_per_node,
                )
            )
        return mended

    # -- phase 4 ----------------------------------------------------------
    def build_model(self, graph: Graph, rng: np.random.Generator) -> Module:
        return MendedSAGE(graph.num_features, graph.num_classes, hidden=self.config.hidden, rng=rng)

"""FedLIT (Xie, Xiong & Yang, WWW 2023) — reimplemented in structure.

Key idea of the original: real-world edges mix several *latent link
types*; a single shared propagation smears them.  FedLIT clusters each
client's edges into K latent types (k-means in embedding space), runs a
type-specific GCN channel per cluster, and federates channel parameters
per type, aligning cluster identities across clients by centroid
matching on the server.

Our reimplementation keeps every one of those mechanisms:

* edge clustering: k-means (our own NumPy implementation, seeded) on
  edge embeddings ``|h_u − h_v| ⊙ (h_u + h_v)/2``-style features —
  concretely the concatenation of endpoint-embedding average and
  absolute difference;
* per-type propagation: the adjacency splits into K masked adjacencies,
  each with its own GCNConv channel, summed before the nonlinearity;
* server-side centroid alignment: greedy matching of client centroids
  to global (averaged) centroids before FedAvg, so channel t means the
  same latent type everywhere;
* re-clustering every ``recluster_every`` rounds as embeddings improve.

§5.2 notes FedLIT "demands massive samples to cluster latent link
types" and degrades at a 1% label rate — the mechanism that produces
this is faithfully present: with few labels the embeddings are poor,
the clusters arbitrary, and the per-type channels each see a fraction
of the already-sparse signal.
"""

from __future__ import annotations

from typing import List, Optional, Union

import numpy as np

from repro.autograd import Tensor, no_grad, relu
from repro.federated.comm import KIND_CENTROIDS
from repro.federated.trainer import FederatedTrainer, TrainerConfig
from repro.graphs.csr import CSRMatrix, symmetric_adjacency, upper_triangle
from repro.graphs.data import Graph
from repro.graphs.laplacian import normalized_adjacency
from repro.gnn import GCNConv
from repro.nn.module import Module


def kmeans(x: np.ndarray, k: int, rng: np.random.Generator, iters: int = 20) -> tuple:
    """Plain Lloyd's k-means; returns (assignments, centroids).

    Empty clusters are reseeded from the farthest points, so ``k``
    centroids always come back (the alignment step needs a full set).
    """
    n = x.shape[0]
    if n == 0:
        raise ValueError("cannot cluster zero points")
    k = min(k, n)
    centroids = x[rng.choice(n, size=k, replace=False)].copy()
    assign = np.zeros(n, dtype=int)
    for _ in range(iters):
        d2 = ((x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_assign = d2.argmin(axis=1)
        for c in range(k):
            members = x[new_assign == c]
            if len(members) > 0:
                centroids[c] = members.mean(axis=0)
            else:
                centroids[c] = x[d2.min(axis=1).argmax()]
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
    return assign, centroids


class _TypedGCN(Module):
    """Two stacked multi-channel GCN layers, one channel per link type."""

    def __init__(self, in_features: int, num_classes: int, hidden: int, k: int, rng):
        super().__init__()
        self.k = k
        self.layer1: List[GCNConv] = []
        self.layer2: List[GCNConv] = []
        for t in range(k):
            c1 = GCNConv(in_features, hidden, rng=rng)
            c2 = GCNConv(hidden, num_classes, rng=rng)
            self.add_module(f"t{t}_conv1", c1)
            self.add_module(f"t{t}_conv2", c2)
            self.layer1.append(c1)
            self.layer2.append(c2)

    def forward(self, s_list: List[CSRMatrix], x: Union[Tensor, CSRMatrix]) -> Tensor:
        h = None
        for s_t, conv in zip(s_list, self.layer1):
            out = conv(s_t, x)
            h = out if h is None else h + out
        h = relu(h)
        z = None
        for s_t, conv in zip(s_list, self.layer2):
            out = conv(s_t, h)
            z = out if z is None else z + out
        return z


class FedLITTrainer(FederatedTrainer):
    """Latent link-type federated GCN."""

    name = "fedlit"

    def __init__(
        self,
        parts,
        config: Optional[TrainerConfig] = None,
        seed: int = 0,
        num_types: int = 2,
        recluster_every: int = 25,
    ):
        if num_types < 1:
            raise ValueError("num_types must be >= 1")
        self.num_types = num_types
        self.recluster_every = recluster_every
        self._rng = np.random.default_rng(seed + 101)
        self._typed_adjs: List[List[CSRMatrix]] = []
        self._centroids: List[np.ndarray] = []
        super().__init__(parts, config, seed=seed)
        # Initial clustering uses raw features as embeddings.
        self._typed_adjs = [self._cluster_edges(c.graph, None) for c in self.clients]
        if self.sanitizer is not None:
            # Re-clustering uploads at most K centroids of the hidden edge
            # embeddings [(h_u + h_v)/2, |h_u − h_v|].
            schema = {KIND_CENTROIDS: (range(1, num_types + 1), 2 * self.config.hidden)}
            for c in self.clients:
                self.sanitizer.protocol.declare_uplinks(c.cid, schema)

    # ------------------------------------------------------------------
    def build_model(self, graph: Graph, rng: np.random.Generator) -> Module:
        return _TypedGCN(
            graph.num_features, graph.num_classes, self.config.hidden, self.num_types, rng
        )

    def _edge_embeddings(self, graph: Graph, h: Optional[np.ndarray]) -> tuple:
        """(edge array (m,2), embedding matrix) for clustering."""
        edges = np.stack(upper_triangle(graph.adj), axis=1)
        if h is not None:
            eu, ev = h[edges[:, 0]], h[edges[:, 1]]
        else:
            # Raw features: densify only the gathered endpoint rows.
            x = graph.x.to_scipy()
            eu, ev = x[edges[:, 0]].toarray(), x[edges[:, 1]].toarray()
        # Float64, like every statistic a party uploads: k-means makes
        # the centroids from it.
        emb = np.concatenate([(eu + ev) / 2.0, np.abs(eu - ev)], axis=1, dtype=np.float64)
        return edges, emb

    def _cluster_edges(self, graph: Graph, h: Optional[np.ndarray]) -> List[CSRMatrix]:
        """Split the adjacency into per-type normalized adjacencies."""
        n = graph.num_nodes
        if not upper_triangle(graph.adj)[0].size:
            # Degenerate party: every type gets the (empty) adjacency.
            s = graph.s_op
            self._centroids.append(np.zeros((self.num_types, 2 * (h.shape[1] if h is not None else graph.num_features))))
            return [s] * self.num_types
        edges, emb = self._edge_embeddings(graph, h)
        assign, centroids = kmeans(emb, self.num_types, self._rng)
        self._centroids.append(centroids)
        adjs = []
        for t in range(self.num_types):
            mask = assign == t if t < centroids.shape[0] else np.zeros(len(edges), bool)
            adjs.append(normalized_adjacency(symmetric_adjacency(*edges[mask].T, n), graph.x.dtype))
        return adjs

    def begin_round(self, round_idx: int) -> None:
        if round_idx > 0 and round_idx % self.recluster_every == 0:
            self._centroids = []
            new_adjs = []
            for c in self.clients:
                c.model.eval()
                with no_grad():
                    h = None
                    for s_t, conv in zip(self._typed_adjs[c.cid], c.model.layer1):
                        out = conv(s_t, c.graph.x)
                        h = out if h is None else h + out
                new_adjs.append(self._cluster_edges(c.graph, h.data))
            self._typed_adjs = new_adjs
            # Upload centroids for server-side type alignment (metered).
            gathered = self.comm.gather(self._centroids, kind=KIND_CENTROIDS)
            self._align_types(gathered)

    def _align_types(self, centroids: List[np.ndarray]) -> None:
        """Server-side latent-type alignment.

        Greedy-match every client's centroids to the reference client's
        so that channel ``t`` denotes the same latent type on all
        parties; misaligned clients get their per-type adjacencies
        permuted accordingly (parameters are shared post-FedAvg, so
        permuting the data side suffices).
        """
        ref = centroids[0]
        for cid in range(1, len(self.clients)):
            own = centroids[cid]
            k = min(len(ref), len(own))
            if k < 2:
                continue
            remaining = list(range(k))
            perm = np.zeros(k, dtype=int)
            for t in range(k):
                dists = [np.linalg.norm(ref[t] - own[j]) for j in remaining]
                pick = remaining.pop(int(np.argmin(dists)))
                perm[t] = pick
            self._typed_adjs[cid] = [self._typed_adjs[cid][perm[t]] for t in range(k)]

    def local_loss(self, client):
        from repro.nn import cross_entropy

        logits = client.model(self._typed_adjs[client.cid], client.graph.x)
        return cross_entropy(logits, client.graph.y, client.graph.train_mask)

    def evaluate(self, split: str = "test") -> float:
        accs, counts = [], []
        from repro.nn import accuracy

        for c in self.clients:
            mask = getattr(c.graph, f"{split}_mask")
            n = int(mask.sum())
            if n == 0:
                continue
            c.model.eval()
            with no_grad():
                logits = c.model(self._typed_adjs[c.cid], c.graph.x)
            accs.append(accuracy(logits, c.graph.y, mask))
            counts.append(n)
        if not counts:
            return float("nan")
        return float(np.average(accs, weights=counts))

"""LocGCN: isolated local GCNs, no federation (§5.1).

Each party trains its own 2-layer GCN on its private subgraph; reported
accuracy is the node-weighted average of local test accuracies.  The
"no-communication" lower bound for graph methods — any FL method worth
its traffic should beat it, which Table 4 shows is *not* automatic
(FedGCN loses to LocGCN on Computer/Photo).
"""

from __future__ import annotations

import numpy as np

from repro.federated.trainer import FederatedTrainer
from repro.gnn import GCN
from repro.graphs.data import Graph
from repro.nn.module import Module


class LocGCNTrainer(FederatedTrainer):
    """Local-only GCN training: ``aggregate`` is a no-op."""

    name = "locgcn"

    def build_model(self, graph: Graph, rng: np.random.Generator) -> Module:
        return GCN(graph.num_features, graph.num_classes, hidden=self.config.hidden, rng=rng)

    def aggregate(self):
        # No parameter exchange: each party keeps its own weights.
        return None

    def _sync_initial_state(self) -> None:
        # Parties are fully isolated — not even a common initialization
        # (each local model was already built from the same seed, but a
        # real isolated deployment would not communicate at all, so we
        # skip the broadcast to keep the traffic meter honest at zero).
        pass

    def global_model(self) -> Module:
        # There is no global model; export party 0's local one.
        return self.clients[0].model

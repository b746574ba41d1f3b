"""SCAFFOLD (Karimireddy et al. 2020): control-variate drift correction.

Each client keeps a control variate c_i, the server keeps c.  The local
gradient step is corrected by (c − c_i); after local training the client
updates (option II of the paper):

    c_i⁺ = c_i − c + (W_global − W_i) / (K·η)

and uploads Δc_i = c_i⁺ − c_i, which the server averages into c.
Per §5.1 the local model is the 2-layer MLP ("based on FedMLP").

Implementation note: the correction is injected by adding (c − c_i)·W
(inner product with the parameters) to the loss — its gradient is
exactly the constant correction term, which keeps the whole thing inside
the standard trainer-hook API without touching the optimizer.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.autograd import Tensor
from repro.federated.client import Client
from repro.federated.comm import KIND_CONTROL
from repro.federated.trainer import FederatedTrainer, TrainerConfig
from repro.gnn import MLP
from repro.graphs.data import Graph
from repro.nn.module import Module

StateDict = Dict[str, np.ndarray]


class ScaffoldTrainer(FederatedTrainer):
    """FedMLP + SCAFFOLD control variates."""

    name = "scaffold"

    def __init__(self, parts, config: Optional[TrainerConfig] = None, seed: int = 0):
        super().__init__(parts, config, seed=seed)
        zero = {k: np.zeros_like(v) for k, v in self.clients[0].get_state().items()}
        self._server_c: StateDict = {k: v.copy() for k, v in zero.items()}
        self._client_c: List[StateDict] = [
            {k: v.copy() for k, v in zero.items()} for _ in self.clients
        ]
        self._round_start_state: Optional[StateDict] = self.clients[0].get_state()
        if self.sanitizer is not None:
            # A control delta has exactly the parameters' names and shapes.
            for c in self.clients:
                self.sanitizer.protocol.declare_uplinks(
                    c.cid, {KIND_CONTROL: self.parameter_schema(c)}, dtype=self.dtype
                )

    def build_model(self, graph: Graph, rng: np.random.Generator) -> Module:
        return MLP(graph.num_features, graph.num_classes, hidden=self.config.hidden, rng=rng)

    def begin_round(self, round_idx: int) -> None:
        # Server state (identical on all clients post-aggregation) is the
        # anchor for this round's control-variate update.
        self._round_start_state = self.clients[0].get_state()
        # Download c to every client (metered).
        self.comm.broadcast(self._server_c)

    def local_loss(self, client: Client) -> Tensor:
        loss = client.ce_loss()
        c, ci = self._server_c, self._client_c[client.cid]
        corr = None
        for name, p in client.model.named_parameters():
            coef = Tensor(c[name] - ci[name])
            term = (p * coef).sum()
            corr = term if corr is None else corr + term
        return loss + corr

    def after_local_training(self, round_idx: int) -> None:
        # Option-II control-variate update + uplink of the deltas.
        k_eta = self.config.local_epochs * self.config.lr
        deltas: List[StateDict] = []
        for client in self.participating_clients():
            ci = self._client_c[client.cid]
            w_i = client.get_state()
            new_ci: StateDict = {}
            delta: StateDict = {}
            for name in ci:
                new_val = (
                    ci[name]
                    - self._server_c[name]
                    + (self._round_start_state[name] - w_i[name]) / k_eta
                )
                delta[name] = new_val - ci[name]
                new_ci[name] = new_val
            self._client_c[client.cid] = new_ci
            deltas.append(self.comm.send_to_server(client.cid, delta, kind=KIND_CONTROL))
        m = len(self.clients)
        for name in self._server_c:
            self._server_c[name] = self._server_c[name] + sum(
                d[name] for d in deltas
            ) / float(m)

"""The FedOMD trainer — Eq. 12 + Algorithm 1 end to end.

Per communication round:

1. Each client runs a forward pass, detaches its hidden activations and
   hands them to the :class:`MomentExchange` (2 statistic rounds).
2. Each client takes its local optimization step on

       L_i = CE(Z_i^L, Y_i) + α·L_ortho_i + β·Σ_l d_CMD(Z_i^l, IID_l)

   where the CMD targets are the just-received global moments
   (constants within the step).
3. FedAvg aggregates and redistributes the model weights.

Ablation flags reproduce Table 6: ``use_ortho``/``use_cmd`` toggle the
α- and β-terms.  ``hard_orthogonal`` additionally Newton–Schulz-projects
hidden weights after each step (DESIGN.md §7 extension ablation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.autograd import Tensor
from repro.core.cmd import cmd_distance_np, layerwise_cmd
from repro.core.exchange import GlobalMoments, MomentExchange
from repro.federated.client import Client
from repro.federated.comm import CommStats, KIND_MEANS, KIND_MOMENTS
from repro.federated.trainer import FederatedTrainer, TrainerConfig
from repro.obs import get_registry
from repro.graphs.data import Graph
from repro.nn import orthogonality_loss
from repro.nn.module import Module
from repro.gnn import OrthoGCN

# (a, b) of Eq. 11.  The CMD literature fixes (0, 1) for bounded
# activations; with ReLU nets whose activations live well inside (0, 1),
# an *empirical* range would turn 1/(b−a)^j into a huge amplifier and let
# the order-5 term dominate the CE loss, so the fixed unit interval is
# both the faithful and the stable choice.
ACTIVATION_RANGE = (0.0, 1.0)


@dataclass
class FedOMDConfig(TrainerConfig):
    """FedOMD hyper-parameters on top of the shared trainer config.

    α = 0.0005 and the moment orders 2–5 and two hidden layers follow
    the paper (Eq. 12, Table 1).  β requires calibration: the paper
    fixes β = 10 *in its own activation units*; Eq. 11's value scales
    with the hidden-feature magnitude, which differs between substrates
    (their PyTorch GCN vs our NumPy stack with L1-normalized synthetic
    bag-of-words inputs).  We re-ran the paper's own selection protocol
    — the Figure 6 (α, β) validation grid — on this substrate and the
    winning β is 0.01; see EXPERIMENTS.md §calibration.  The fig6
    experiment regenerates the full sensitivity surface.
    """

    alpha: float = 0.0005
    beta: float = 0.01
    num_hidden: int = 2
    orders: tuple = (2, 3, 4, 5)
    use_ortho: bool = True
    use_cmd: bool = True
    hard_orthogonal: bool = False

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be non-negative")
        if self.num_hidden < 1:
            raise ValueError("num_hidden must be >= 1")


class FedOMDTrainer(FederatedTrainer):
    """Federated orthogonal moment-discrepancy training (the paper)."""

    name = "fedomd"

    def __init__(
        self,
        parts: Sequence[Graph],
        config: Optional[FedOMDConfig] = None,
        seed: int = 0,
        faults=None,
    ) -> None:
        self.omd_config: FedOMDConfig = config or FedOMDConfig()
        super().__init__(parts, self.omd_config, seed=seed, faults=faults)
        self.exchange = MomentExchange(self.comm, orders=self.omd_config.orders)
        self._global_moments: Optional[GlobalMoments] = None
        self._last_exchange_traffic: Optional[CommStats] = None
        self._last_exchange_cids: List[int] = [c.cid for c in self.clients]
        if self.sanitizer is not None:
            # OrthoGCN's cached propagation operator holds a copy of the
            # raw structure, not a view of adj, so declare it too.
            for c in self.clients:
                self.sanitizer.register_private_arrays(
                    [(f"client{c.cid}.graph.s_op", c.graph.s_op)]
                )

    # ------------------------------------------------------------------
    def build_model(self, graph: Graph, rng: np.random.Generator) -> Module:
        return OrthoGCN(
            graph.num_features,
            graph.num_classes,
            hidden=self.config.hidden,
            num_hidden=self.omd_config.num_hidden,
            rng=rng,
        )

    def begin_round(self, round_idx: int) -> None:
        """Run the 2-round moment exchange before local training.

        Only the round's *active participants* compute and upload
        statistics: under fault injection, dropped clients are
        unreachable — they must neither be billed on the metered channel
        nor skew the "IID" moments toward data that is not training this
        round (the surviving ``n_i`` reweight among themselves in
        ``weighted_mean_statistics``).  When *no* client is reachable
        the exchange is skipped and clients train against the last
        round's global moments — the stale-but-available policy.
        Each participant's hidden features come from its cached eval
        forward (:meth:`Client.eval_forward`): the model it received
        last round was already evaluated, so after round 0 this is a
        cache read.  Misses run through the :class:`ClientExecutor`
        (read-only model + private graph per client, so they
        parallelize cleanly).
        """
        if not self.omd_config.use_cmd:
            return
        participants = self.active_clients()
        if not participants:
            return
        client_hidden = self.executor.map(
            lambda c: c.eval_forward()[1],
            participants,
            span="client.upload_moments",
            attrs=lambda c: {"client": c.cid},
        )
        counts = [c.num_nodes for c in participants]
        before = self.comm.snapshot()
        self._global_moments = self.exchange.run(
            client_hidden, counts, client_ids=[c.cid for c in participants]
        )
        self._last_exchange_traffic = self.comm.snapshot() - before
        self._last_exchange_cids = [c.cid for c in participants]

    def local_loss(self, client: Client) -> Tensor:
        """Eq. 12: CE + α·ortho + β·CMD."""
        cfg = self.omd_config
        model: OrthoGCN = client.model  # type: ignore[assignment]
        logits, hidden = model.forward_with_hidden(client.graph)
        from repro.nn import cross_entropy

        loss = cross_entropy(logits, client.graph.y, client.graph.train_mask)
        if cfg.use_ortho and model.ortho_weights():
            loss = loss + orthogonality_loss(model.ortho_weights()) * cfg.alpha
        if cfg.use_cmd and self._global_moments is not None:
            a, b = ACTIVATION_RANGE
            cmd = layerwise_cmd(
                hidden,
                self._global_moments.means,
                self._global_moments.moments,
                a=a,
                b=b,
                orders=cfg.orders,
            )
            loss = loss + cmd * cfg.beta
            self._gauge_cmd_distances(client, hidden)
        return loss

    def _gauge_cmd_distances(self, client: Client, hidden: Sequence[Tensor]) -> None:
        """Per-layer CMD-to-IID gauges (telemetry only; no autograd, no RNG).

        The GCFL-style drift diagnosis — which client's hidden
        distribution sits farthest from the pooled "IID" one, and at
        which depth — needs the per-layer terms Eq. 12 sums away.
        Recomputed here in plain NumPy on the already-detached data so
        the training graph and the RNG stream are untouched; skipped
        entirely against the null registry.
        """
        reg = get_registry()
        if not reg.enabled:
            return
        cfg = self.omd_config
        a, b = ACTIVATION_RANGE
        gm = self._global_moments
        for l, z in enumerate(hidden):
            d = cmd_distance_np(z.data, gm.means[l], gm.moments[l], a=a, b=b, orders=cfg.orders)
            reg.gauge("fedomd.cmd_distance", client=client.cid, layer=l).set(d)

    def after_local_training(self, round_idx: int) -> None:
        if self.omd_config.hard_orthogonal:
            # Only clients that actually trained this round; projecting
            # a dropped or failed party would mutate state the server
            # never saw and de-sync it from its own last download.
            for c in self.active_clients():
                c.model.project_orthogonal()  # type: ignore[attr-defined]
                c.bump_version()

    # ------------------------------------------------------------------
    def statistics_bytes_last_round(self) -> Dict[str, int]:
        """Traffic split: how much of the round was statistics vs weights.

        Supports the paper's claim that the CMD exchange adds negligible
        communication (§5.2, Table 3 discussion).  The headline number is
        *measured*: :meth:`begin_round` snapshots the metered
        :class:`CommStats` around the exchange, so the report is exactly
        what the channel moved (and reflects dropped clients).
        Before any exchange has run it falls back to the closed-form
        estimate; ``tests/core`` asserts formula == measured.
        """
        # A party's weights are the rows it holds, the same size both ways:
        # the m participants upload theirs and every client downloads its own.
        model_bytes = [sum(p.data.nbytes for p in c.model.parameters()) for c in self.clients]
        m = len(self._last_exchange_cids)
        per_round_weights = sum(model_bytes[cid] for cid in self._last_exchange_cids) + sum(
            model_bytes
        )
        d_h = self.config.hidden
        l = self.omd_config.num_hidden
        k = len(self.omd_config.orders)
        # Round 1: m·(L·d_h + 1) up, m·L·d_h down; round 2 scales by K.
        phase1 = m * (l * d_h + 1) * 8 + m * l * d_h * 8
        phase2 = m * (l * d_h * k + 1) * 8 + m * l * d_h * k * 8
        stats_up = m * (l * d_h + 1) * 8 + m * (l * d_h * k + 1) * 8
        stats_down = m * l * d_h * 8 + m * l * d_h * k * 8
        measured = self._last_exchange_traffic
        return {
            "model_bytes_per_round": per_round_weights,
            "statistics_bytes_per_round_approx": stats_up + stats_down,
            "statistics_bytes_per_round_measured": (
                measured.total_bytes if measured is not None else stats_up + stats_down
            ),
            "statistics_uplink_bytes_measured": (
                measured.uplink_bytes if measured is not None else stats_up
            ),
            "statistics_downlink_bytes_measured": (
                measured.downlink_bytes if measured is not None else stats_down
            ),
            # Phase split of Algorithm 1 (kind-tagged channel metering):
            # phase 1 moves the layer means, phase 2 the central moments.
            "statistics_phase1_means_bytes_measured": (
                measured.kind_total_bytes(KIND_MEANS) if measured is not None else phase1
            ),
            "statistics_phase2_moments_bytes_measured": (
                measured.kind_total_bytes(KIND_MOMENTS) if measured is not None else phase2
            ),
        }

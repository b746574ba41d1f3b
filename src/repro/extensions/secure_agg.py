"""Secure aggregation for the moment exchange (additive masking).

Bonawitz-style pairwise masking specialized to FedOMD's statistics:
each ordered client pair (i, j), i < j, agrees (via a shared seed) on a
mask ``m_ij``; client i adds ``+m_ij``, client j adds ``−m_ij``.  The
per-client uploads are then indistinguishable from noise, but any *sum*
over all clients is exact because every mask cancels.

Algorithm 1's server only ever computes weighted sums
(Σ nᵢ·Mᵢ / Σ nᵢ), so FedOMD is maskable end to end — the claim this
module demonstrates.  To keep the weighted sum linear in the uploads,
clients upload ``nᵢ · statistic`` (pre-multiplied) plus the scalar
``nᵢ``, and the *product* is what gets masked.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.core.exchange import GlobalMoments, MomentExchange
from repro.core.moments import central_moments_np
from repro.federated.comm import Communicator, KIND_MEANS, KIND_MOMENTS


def pairwise_masks(
    num_clients: int, shapes: Sequence[tuple], round_seed: int
) -> List[List[np.ndarray]]:
    """Per-client masks, one array per shape, summing to zero overall.

    ``round_seed`` models the per-round shared randomness (in a real
    deployment: pairwise Diffie–Hellman-derived PRG seeds).
    """
    if num_clients < 2:
        # A single client has nobody to mask against.
        return [[np.zeros(s) for s in shapes] for _ in range(num_clients)]
    masks = [[np.zeros(s) for s in shapes] for _ in range(num_clients)]
    for i in range(num_clients):
        for j in range(i + 1, num_clients):
            rng = np.random.default_rng((round_seed, i, j))
            for k, s in enumerate(shapes):
                m = rng.standard_normal(s)
                masks[i][k] += m
                masks[j][k] -= m
    return masks


class SecureMomentExchange(MomentExchange):
    """Moment exchange whose uploads are pairwise-masked.

    The server-visible payloads are masked; the resulting
    :class:`GlobalMoments` is **numerically identical** (up to float
    round-off) to the plain exchange — asserted by the test suite.
    """

    def __init__(self, comm: Communicator, orders=(2, 3, 4, 5), round_seed: int = 0) -> None:
        super().__init__(comm, orders)
        self.round_seed = round_seed

    def run(
        self,
        client_hidden: Sequence[Sequence[np.ndarray]],
        client_counts: Sequence[int],
        client_ids: Sequence[int] | None = None,
    ) -> GlobalMoments:
        m = len(client_hidden)
        if client_ids is None:
            client_ids = list(range(m))
        if len(client_ids) != m:
            raise ValueError("one communicator id per participant required")
        if len(set(client_ids)) != m:
            raise ValueError("participant ids must be distinct")
        if m < 1 or m > self.comm.num_clients:
            raise ValueError(
                f"{m} participants cannot exceed {self.comm.num_clients} clients"
            )
        num_layers = len(client_hidden[0])
        if num_layers == 0:
            raise ValueError("clients have no hidden layers")
        dims = [np.asarray(client_hidden[0][l]).shape[1] for l in range(num_layers)]
        n_total = float(sum(client_counts))

        # ---- round 1: masked Σ nᵢ·meanᵢ per layer.  Masks are pairwise
        # over the round's *participants* — they cancel over any subset,
        # so dropped clients compose with secure aggregation.
        shapes = [(d,) for d in dims]
        masks = pairwise_masks(m, shapes, self.round_seed)
        received = []
        for i, (cid, hidden, n_i) in enumerate(zip(client_ids, client_hidden, client_counts)):
            payload = []
            for l, z in enumerate(hidden):
                weighted = float(n_i) * np.asarray(z).mean(axis=0)
                payload.append(weighted + masks[i][l])
            received.append(
                self.comm.send_to_server(
                    cid, {"masked": payload, "n": float(n_i)}, kind=KIND_MEANS
                )
            )
        global_means = []
        for l in range(num_layers):
            total = np.zeros(dims[l])
            for r in received:
                total += r["masked"][l]
            global_means.append(total / n_total)
        means_per_client = [
            self.comm.send_to_client(cid, global_means, kind=KIND_MEANS) for cid in client_ids
        ]

        # ---- round 2: masked Σ nᵢ·momentᵢ per (layer, order).
        shapes2 = [(d,) for d in dims for _ in self.orders]
        masks2 = pairwise_masks(m, shapes2, self.round_seed + 1)
        received2 = []
        for i, (cid, hidden, n_i) in enumerate(zip(client_ids, client_hidden, client_counts)):
            g_means = means_per_client[i]
            payload = []
            idx = 0
            for l, z in enumerate(hidden):
                for moment in central_moments_np(z, g_means[l], self.orders):
                    weighted = float(n_i) * moment
                    payload.append(weighted + masks2[i][idx])
                    idx += 1
            received2.append(
                self.comm.send_to_server(
                    cid, {"masked": payload, "n": float(n_i)}, kind=KIND_MOMENTS
                )
            )
        global_moments: List[List[np.ndarray]] = []
        idx = 0
        for l in range(num_layers):
            per_order = []
            for _ in self.orders:
                total = np.zeros(dims[l])
                for r in received2:
                    total += r["masked"][idx]
                per_order.append(total / n_total)
                idx += 1
            global_moments.append(per_order)
        for cid in client_ids:
            self.comm.send_to_client(cid, global_moments, kind=KIND_MOMENTS)
        return GlobalMoments(means=global_means, moments=global_moments, orders=self.orders)

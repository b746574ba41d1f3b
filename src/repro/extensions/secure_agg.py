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

from repro.core.exchange import MomentExchange
from repro.federated.comm import Communicator


def participant_mask(
    slot: int, num_clients: int, shapes: Sequence[tuple], round_seed: int
) -> List[np.ndarray]:
    """Client ``slot``'s mask, one array per shape, from its own pair seeds.

    ``+m_ij`` toward every later peer ``j``, ``−m_ji`` toward every
    earlier one, so the masks of all ``num_clients`` participants sum
    to zero.  ``round_seed`` models the per-round shared randomness (in
    a real deployment: pairwise Diffie–Hellman-derived PRG seeds).
    """
    mask = [np.zeros(s) for s in shapes]
    for peer in range(num_clients):
        if peer == slot:
            continue
        rng = np.random.default_rng((round_seed, min(slot, peer), max(slot, peer)))
        for k, s in enumerate(shapes):
            if slot < peer:
                mask[k] += rng.standard_normal(s)
            else:
                mask[k] -= rng.standard_normal(s)
    return mask


def pairwise_masks(
    num_clients: int, shapes: Sequence[tuple], round_seed: int
) -> List[List[np.ndarray]]:
    """Every client's :func:`participant_mask`; they sum to zero overall.

    A single client has nobody to mask against and gets zeros.
    """
    return [participant_mask(i, num_clients, shapes, round_seed) for i in range(num_clients)]


class SecureMomentExchange(MomentExchange):
    """Moment exchange whose uploads are pairwise-masked.

    Only the encoding changes: a client uploads ``nᵢ·s + mask`` for each
    statistic ``s``, and the server divides the plain sum of the uploads
    by ``Σ nᵢ``.  The protocol, its input checks and participant-subset
    support are :meth:`MomentExchange.run`'s.  Masks are pairwise over
    the round's *participants*, so they cancel over any subset and
    dropped clients compose with secure aggregation.  The server-visible
    payloads are masked; the resulting :class:`GlobalMoments` equals
    the plain exchange's up to float round-off (``atol=1e-9`` in the
    test suite).
    """

    def __init__(self, comm: Communicator, orders=(2, 3, 4, 5), round_seed: int = 0) -> None:
        super().__init__(comm, orders)
        self.round_seed = round_seed

    def _encode(
        self, stats: List[np.ndarray], n_i: float, slot: int, participants: int, round_no: int
    ) -> List[np.ndarray]:
        shapes = [np.shape(stat) for stat in stats]
        mask = participant_mask(slot, participants, shapes, self.round_seed + round_no)
        return [n_i * stat + m for stat, m in zip(stats, mask)]

    def _reduce(self, uploads: List[List[np.ndarray]], counts: List[float]) -> List[np.ndarray]:
        n_total = float(sum(counts))
        return [sum(column) / n_total for column in zip(*uploads)]

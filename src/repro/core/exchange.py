"""Algorithm 1's 2-round statistic exchange (contribution ii).

Round 1:  every client uploads ``([M_i^1 … M_i^{L-1}], n_i)`` — its
          layer-wise hidden-feature means and node count.  The server
          returns the sample-weighted global means ``[M^1 … M^{L-1}]``
          (line 25).
Round 2:  every client uploads its central moments *about the global
          means* ``[S_i^l]_j`` (line 13); the server returns their
          weighted averages ``[S^l]_j`` — which are exactly the central
          moments of the pooled ("IID") hidden distribution, computed
          without any raw feature leaving a party.

Why round-2 moments about the *global* mean make the average exact:
for pooled data Z = ∪_i Z_i,
    E((Z − M)^j) = Σ_i (n_i/n) · E((Z_i − M)^j),
so averaging the clients' about-global-mean moments with weights n_i
reconstructs the pooled central moment exactly — this is the "implicit"
IID distribution of §4.4, and why only two rounds are needed.

All payloads move through the metered :class:`Communicator`, so the
communication-cost claim (statistics ≪ model weights) is measurable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.moments import central_moments_np, layer_means_np
from repro.federated.comm import Communicator, KIND_MEANS, KIND_MOMENTS
from repro.federated.server import weighted_mean_statistics
from repro.obs import get_tracer


@dataclass
class GlobalMoments:
    """The server-side 'IID' distribution summary, per hidden layer."""

    means: List[np.ndarray]  # [M^l] — length L-1
    moments: List[List[np.ndarray]]  # [layer][order] — [S^l]_j
    orders: tuple  # e.g. (2, 3, 4, 5)

    @property
    def num_layers(self) -> int:
        return len(self.means)


class MomentExchange:
    """Runs the 2-round exchange for one communication round.

    :meth:`run` is the protocol's one implementation.  Variants change
    only how a client encodes its statistics (:meth:`_encode`, or the
    per-statistic :meth:`_perturb_statistic`) and how the server
    reduces the uploads (:meth:`_reduce`).
    """

    def __init__(self, comm: Communicator, orders: Sequence[int] = (2, 3, 4, 5)) -> None:
        for j in orders:
            if j < 2:
                raise ValueError("central-moment orders start at 2 (order 1 is the mean)")
        self.comm = comm
        self.orders = tuple(orders)

    def _perturb_statistic(self, stat: np.ndarray, n_i: float) -> np.ndarray:
        """Hook applied to each statistic as it leaves a client.

        Identity here; privacy extensions override it to inject
        mechanism noise (sensitivity scales with 1/n_i) without
        re-implementing the protocol.
        """
        return stat

    def _encode(
        self, stats: List[np.ndarray], n_i: float, slot: int, participants: int, round_no: int
    ) -> List[np.ndarray]:
        """Client side: participant ``slot``'s statistics as uploaded.

        Plain encoding: each statistic through :meth:`_perturb_statistic`.
        ``participants`` and ``round_no`` (0 = means, 1 = moments) are
        there for encodings that depend on who else uploads.
        """
        return [self._perturb_statistic(stat, n_i) for stat in stats]

    def _reduce(self, uploads: List[List[np.ndarray]], counts: List[float]) -> List[np.ndarray]:
        """Server side: line 25's Σ n_i·s_i / Σ n_i, one statistic at a time."""
        return [weighted_mean_statistics(column, counts) for column in zip(*uploads)]

    def run(
        self,
        client_hidden: Sequence[Sequence[np.ndarray]],
        client_counts: Sequence[int],
        client_ids: Optional[Sequence[int]] = None,
    ) -> GlobalMoments:
        """Execute both rounds, possibly over a participant subset.

        Parameters
        ----------
        client_hidden:
            ``client_hidden[i][l]`` is the (n_i, d_l) *detached* hidden
            activation of layer ``l`` at participant ``i``.
        client_counts:
            n_i per participant (the weights of line 25; they renormalize
            over whoever participates, so a subset yields the pooled
            moments of exactly that subset's activations).
        client_ids:
            Communicator ids of the participants (default ``0..m-1``,
            i.e. full participation).  Under fault injection only the
            *reachable* parties upload statistics and receive the global
            summary — failed parties move zero bytes through the metered
            channel, and the weights ``n_i`` renormalize over the
            survivors (line 25 computed over whoever actually reported).

        Returns
        -------
        The :class:`GlobalMoments` each participant receives.
        """
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
        if len(client_counts) != m:
            raise ValueError("one count per participant required")
        num_layers = len(client_hidden[0])
        if num_layers == 0:
            raise ValueError("clients have no hidden layers")
        for h in client_hidden:
            if len(h) != num_layers:
                raise ValueError("clients disagree on layer count")
        counts = [float(n_i) for n_i in client_counts]
        tracer = get_tracer()

        # ---- round 1: upload local means + counts, download global means.
        with tracer.span("exchange.means", participants=m):
            global_means, means_per_client = self._round(
                0, KIND_MEANS, client_ids, counts, [layer_means_np(h) for h in client_hidden]
            )

        # ---- round 2: moments about the global mean, download averages.
        with tracer.span("exchange.moments", participants=m):
            moments = [
                [
                    moment
                    for z, g_mean in zip(hidden, g_means)
                    for moment in central_moments_np(z, g_mean, self.orders)
                ]
                for hidden, g_means in zip(client_hidden, means_per_client)
            ]
            global_moments, _ = self._round(1, KIND_MOMENTS, client_ids, counts, moments)

        return GlobalMoments(means=global_means, moments=global_moments, orders=self.orders)

    def _round(
        self,
        round_no: int,
        kind: str,
        client_ids: Sequence[int],
        counts: List[float],
        client_stats: List[List[np.ndarray]],
    ) -> Tuple[list, list]:
        """One statistics round: encode and upload, reduce, download.

        ``client_stats[i]`` lists participant ``i``'s statistics
        layer-major.  Uploads are ``{kind: stats, "n": n_i}``; moments
        travel (and come back) nested per layer, one entry per order.
        Returns the server's result and every participant's download.
        """
        width = len(self.orders)

        def nest(flat: List[np.ndarray]) -> list:
            if kind == KIND_MEANS:
                return list(flat)
            return [list(flat[i : i + width]) for i in range(0, len(flat), width)]

        def flatten(nested: list) -> List[np.ndarray]:
            return list(nested) if kind == KIND_MEANS else [s for row in nested for s in row]

        participants = len(client_ids)
        uploads = [
            self.comm.send_to_server(
                cid,
                {kind: nest(self._encode(stats, n_i, slot, participants, round_no)), "n": n_i},
                kind=kind,
            )
            for slot, (cid, stats, n_i) in enumerate(zip(client_ids, client_stats, counts))
        ]
        result = nest(
            self._reduce([flatten(u[kind]) for u in uploads], [u["n"] for u in uploads])
        )
        return result, [self.comm.send_to_client(cid, result, kind=kind) for cid in client_ids]


def pooled_central_moments(
    client_hidden: Sequence[Sequence[np.ndarray]],
    orders: Sequence[int] = (2, 3, 4, 5),
) -> GlobalMoments:
    """Ground-truth pooled moments, computed centrally (tests only).

    What a privacy-free oracle would compute by concatenating all
    parties' activations; the exchange must reproduce this exactly.
    It stays on ``np.power`` on purpose: it is the independent reference
    for the fused kernel behind :func:`central_moments_np`, so it must
    not share the code it checks.  Like the exchange, it computes in
    float64 whatever the activations' dtype.
    """
    num_layers = len(client_hidden[0])
    means, moments = [], []
    for l in range(num_layers):
        pooled = np.concatenate([h[l] for h in client_hidden], axis=0, dtype=np.float64)
        mu = pooled.mean(axis=0)
        means.append(mu)
        moments.append([((pooled - mu) ** j).mean(axis=0) for j in orders])
    return GlobalMoments(means=means, moments=moments, orders=tuple(orders))

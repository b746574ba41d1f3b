"""Metered in-process communication channel.

Models the server↔client star topology of Figure 2 with MPI-flavored
collective names (the natural vocabulary for synchronous FL rounds).
Payloads are numpy arrays, or arbitrarily nested dict/list/tuple
structures of them; :func:`payload_bytes` sizes exactly what a real
transport would serialize, which is what Table 3's communication
accounting reports.

Transfers deliver read-only views, not copies.  Each ndarray leaf of a
payload arrives as a ``view()`` with ``writeable=False``; containers are
rebuilt per receiver, scalars and strings pass through, and any other
leaf (a scipy or kernel sparse matrix) is still deep-copied.  A real
deployment would serialize the buffers, so the receiver must not see the
sender's later writes and the sender must not see the receiver's:

* a receiver that writes to a delivered array raises ``ValueError`` at
  once (a copy would have hidden that write);
* a sender must not write to what it sent until the peer has answered
  with a transfer the other way.  The round loop keeps that order: the
  barrier upload is a view of the live parameters, and ``fedavg``
  consumes it before ``_distribute`` overwrites them.  Under the
  runtime sanitizer, :class:`~repro.analysis.sanitize.ProtocolMonitor`
  fingerprints every delivered array at send and checks it then.

Whoever keeps a payload past that point owns a copy: the async engine
uploads ``get_state()`` snapshots because it holds uploads across
rounds, and ``set_state`` copies a downloaded model into the
parameters.

Thread-safety contract: every stat mutation happens under one internal
lock, so point-to-point transfers may be issued concurrently from
:class:`~repro.federated.executor.ClientExecutor` worker threads and the
counters stay exact.  Collectives (broadcast / gather) are
round barriers and must be called from the coordinating thread only.
Reading ``stats`` between rounds (how the trainer records history) needs
no lock; use :meth:`Communicator.snapshot` for a consistent copy while
transfers are in flight.
"""

from __future__ import annotations

import copy
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from repro.graphs.csr import is_scipy_sparse
from repro.obs import get_registry

# Well-known payload kinds (callers may also pass their own): model
# weights, the two statistic phases of Algorithm 1, and the baselines'
# phase-less extras (SCAFFOLD's control variates, FedLIT's link-type
# centroids).  Untagged transfers land in "other".
KIND_WEIGHTS = "weights"
KIND_MEANS = "means"
KIND_MOMENTS = "moments"
KIND_CONTROL = "control"
KIND_CENTROIDS = "centroids"
KIND_OTHER = "other"


def payload_bytes(payload: Any) -> int:
    """Bytes a transport would move for ``payload``.

    Counts ndarray buffers plus scalars at 8 bytes; container overhead is
    ignored (constant-factor, implementation-specific).

    Sparse matrices (``scipy.sparse`` or the kernel substrate's
    :class:`~repro.graphs.csr.CSRMatrix`) are billed at their index
    structure plus values — ``data + indices + indptr`` for CSR/CSC/BSR,
    ``data + row + col`` for COO, ``data + offsets`` for DIA — exactly
    the buffers a transport would serialize.  This is what
    sampled-subgraph payloads (adjacency blocks) are metered by.
    """
    if payload is None:
        return 0
    if isinstance(payload, np.ndarray):
        return int(payload.nbytes)
    if is_scipy_sparse(payload):
        if payload.format in ("csr", "csc", "bsr"):
            return int(
                payload.data.nbytes + payload.indices.nbytes + payload.indptr.nbytes
            )
        if payload.format == "coo":
            return int(payload.data.nbytes + payload.row.nbytes + payload.col.nbytes)
        if payload.format == "dia":
            return int(payload.data.nbytes + payload.offsets.nbytes)
        # lil/dok have no flat buffers; bill the canonical COO encoding.
        return payload_bytes(payload.tocoo())
    if getattr(payload, "is_kernel_operator", False):
        # CSRMatrix: the reverse-CSR is derivable, only forward arrays move.
        return int(
            payload.data.nbytes + payload.indices.nbytes + payload.indptr.nbytes
        )
    # np.bool_ is not a bool/int subclass (and complex is not float):
    # both used to fall through to the TypeError below.
    if isinstance(payload, (bool, np.bool_, int, float, np.integer, np.floating)):
        return 8
    if isinstance(payload, (complex, np.complexfloating)):
        return 16
    if isinstance(payload, str):
        return len(payload.encode())
    if isinstance(payload, dict):
        return sum(payload_bytes(v) for v in payload.values())
    if isinstance(payload, (list, tuple)):
        return sum(payload_bytes(v) for v in payload)
    raise TypeError(f"unsupported payload type {type(payload).__name__}")


def deliver(payload: Any) -> Any:
    """What the receiver of ``payload`` gets: read-only views of its arrays.

    Containers are rebuilt (a receiver may reshape its own structure),
    scalars and strings pass through, and leaves of any other type —
    sparse matrices — are deep-copied.
    """
    if isinstance(payload, np.ndarray):
        view = payload.view()
        view.flags.writeable = False
        return view
    if type(payload) is dict:
        return {k: deliver(v) for k, v in payload.items()}
    if type(payload) in (list, tuple):
        return type(payload)(deliver(v) for v in payload)
    if payload is None or isinstance(payload, (bool, int, float, complex, str, np.generic)):
        return payload
    return copy.deepcopy(payload)


def _zero_kind() -> Dict[str, int]:
    return {
        "uplink_bytes": 0,
        "downlink_bytes": 0,
        "uplink_messages": 0,
        "downlink_messages": 0,
    }


@dataclass
class CommStats:
    """Cumulative traffic counters (bytes and message counts).

    ``by_kind`` splits the same totals by payload kind (``weights`` /
    ``means`` / ``moments`` / ``other``), which is how Table 3's
    statistics-vs-weights accounting and the phase-1/phase-2 split of
    Algorithm 1 are reported.  The per-kind cells always sum to the
    aggregate counters.
    """

    uplink_bytes: int = 0  # client → server
    downlink_bytes: int = 0  # server → client
    uplink_messages: int = 0
    downlink_messages: int = 0
    rounds: int = 0
    by_kind: Dict[str, Dict[str, int]] = field(default_factory=dict)

    @property
    def total_bytes(self) -> int:
        return self.uplink_bytes + self.downlink_bytes

    def kind(self, kind: str) -> Dict[str, int]:
        """The (possibly zero) per-kind cell for ``kind``."""
        return dict(self.by_kind.get(kind, _zero_kind()))

    def kind_total_bytes(self, kind: str) -> int:
        cell = self.kind(kind)
        return cell["uplink_bytes"] + cell["downlink_bytes"]

    def copy(self) -> "CommStats":
        return CommStats(
            uplink_bytes=self.uplink_bytes,
            downlink_bytes=self.downlink_bytes,
            uplink_messages=self.uplink_messages,
            downlink_messages=self.downlink_messages,
            rounds=self.rounds,
            by_kind={k: dict(v) for k, v in self.by_kind.items()},
        )

    def __sub__(self, other: "CommStats") -> "CommStats":
        """Counter deltas — ``after - before`` isolates one phase's traffic."""
        kinds = set(self.by_kind) | set(other.by_kind)
        by_kind = {}
        for k in kinds:
            a, b = self.kind(k), other.kind(k)
            cell = {f: a[f] - b[f] for f in a}
            if any(cell.values()):
                by_kind[k] = cell
        return CommStats(
            uplink_bytes=self.uplink_bytes - other.uplink_bytes,
            downlink_bytes=self.downlink_bytes - other.downlink_bytes,
            uplink_messages=self.uplink_messages - other.uplink_messages,
            downlink_messages=self.downlink_messages - other.downlink_messages,
            rounds=self.rounds - other.rounds,
            by_kind=by_kind,
        )

    def as_dict(self) -> Dict[str, int]:
        out = {
            "uplink_bytes": self.uplink_bytes,
            "downlink_bytes": self.downlink_bytes,
            "uplink_messages": self.uplink_messages,
            "downlink_messages": self.downlink_messages,
            "total_bytes": self.total_bytes,
            "rounds": self.rounds,
        }
        for kind in sorted(self.by_kind):
            for f, v in self.by_kind[kind].items():
                out[f"{kind}_{f}"] = v
        return out


@dataclass
class Communicator:
    """Star-topology channel between one server and ``num_clients`` parties."""

    num_clients: int
    stats: CommStats = field(default_factory=CommStats)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )
    # Optional observer (duck-typed: on_event / on_round_end), set by the
    # sanitizer's ProtocolMonitor.  Hot paths pay one `is None` test.
    _monitor: Any = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.num_clients < 1:
            raise ValueError("need at least one client")

    def _notify(
        self, direction: str, kind: str, payload: Any, client: Optional[int] = None
    ) -> None:
        """Report a collective to the attached monitor, if any.

        Called at the top of each collective — before metering — so a
        protocol/privacy violation aborts the transfer with the
        counters untouched.  ``client`` identifies the peer of a
        point-to-point transfer (``None`` for true collectives), which
        is what lets the monitor track a per-client phase lattice under
        the async engine.
        """
        monitor = self._monitor
        if monitor is not None:
            monitor.on_event(direction, kind, payload, client=client)

    def snapshot(self) -> CommStats:
        """Consistent copy of the counters (safe during concurrent sends)."""
        with self._lock:
            return self.stats.copy()

    def _meter_uplink(self, nbytes: int, messages: int = 1, kind: str = KIND_OTHER) -> None:
        with self._lock:
            self.stats.uplink_bytes += nbytes
            self.stats.uplink_messages += messages
            cell = self.stats.by_kind.setdefault(kind, _zero_kind())
            cell["uplink_bytes"] += nbytes
            cell["uplink_messages"] += messages
        reg = get_registry()
        if reg.enabled:
            reg.counter("comm.bytes", direction="uplink", kind=kind).inc(nbytes)
            reg.counter("comm.messages", direction="uplink", kind=kind).inc(messages)

    def _meter_downlink(self, nbytes: int, messages: int = 1, kind: str = KIND_OTHER) -> None:
        with self._lock:
            self.stats.downlink_bytes += nbytes
            self.stats.downlink_messages += messages
            cell = self.stats.by_kind.setdefault(kind, _zero_kind())
            cell["downlink_bytes"] += nbytes
            cell["downlink_messages"] += messages
        reg = get_registry()
        if reg.enabled:
            reg.counter("comm.bytes", direction="downlink", kind=kind).inc(nbytes)
            reg.counter("comm.messages", direction="downlink", kind=kind).inc(messages)

    # -- collectives ------------------------------------------------------
    def broadcast(self, payload: Any, kind: str = KIND_OTHER) -> List[Any]:
        """Server → all clients.  Returns one delivery per client.

        Each delivery has its own containers over read-only views of
        ``payload``'s arrays (see :func:`deliver`): no weight-sized copy
        is made, a client that writes to one raises, and the server
        must leave ``payload`` unchanged until the clients answer.  A
        client keeps the model by copying it (``set_state`` does).
        """
        self._notify("down", kind, payload)
        size = payload_bytes(payload)
        self._meter_downlink(size * self.num_clients, self.num_clients, kind=kind)
        return [deliver(payload) for _ in range(self.num_clients)]

    def send_to_client(self, client_id: int, payload: Any, kind: str = KIND_OTHER) -> Any:
        """Server → one client."""
        self._check_id(client_id)
        self._notify("down", kind, payload, client=client_id)
        self._meter_downlink(payload_bytes(payload), kind=kind)
        return deliver(payload)

    def gather(self, payloads: List[Any], kind: str = KIND_OTHER) -> List[Any]:
        """All clients → server.  ``payloads[i]`` comes from client ``i``."""
        if len(payloads) != self.num_clients:
            raise ValueError(f"expected {self.num_clients} payloads, got {len(payloads)}")
        self._notify("up", kind, payloads)
        for p in payloads:
            self._meter_uplink(payload_bytes(p), kind=kind)
        return [deliver(p) for p in payloads]

    def send_to_server(self, client_id: int, payload: Any, kind: str = KIND_OTHER) -> Any:
        """One client → server."""
        self._check_id(client_id)
        self._notify("up", kind, payload, client=client_id)
        self._meter_uplink(payload_bytes(payload), kind=kind)
        return deliver(payload)

    def end_round(self) -> None:
        """Mark a communication-round boundary (for per-round averages)."""
        monitor = self._monitor
        if monitor is not None:
            monitor.on_round_end()
        with self._lock:
            self.stats.rounds += 1

    def _check_id(self, client_id: int) -> None:
        if not 0 <= client_id < self.num_clients:
            raise ValueError(f"client id {client_id} out of range [0, {self.num_clients})")

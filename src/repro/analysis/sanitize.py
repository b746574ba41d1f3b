"""Opt-in runtime sanitizers: autograd guards and lock-ownership probes.

Two independent probes, both zero-cost when off (the same null-object
discipline as :mod:`repro.obs` — the hot paths pay one ``is None`` test):

**Autograd sanitizer** (:class:`AutogradSanitizer`).  Installed into
:mod:`repro.autograd.tensor` via :func:`set_tensor_sanitizer`, it hooks
the single op-creation choke point (``Tensor._make``) and the backward
loop to detect, with op-name provenance in every error:

* in-place mutation of a tensor captured for backward — NumPy cannot
  intercept ndarray writes, so "version counters" are content
  fingerprints (blake2b of the buffer) taken at record time and
  re-verified just before the op's backward closure runs;
* NaN/Inf escaping a forward op or accumulating into a gradient;
* dtype drift: an op whose output's dtype is not its operands' one
  dtype (a float64 temporary promoted a float32 run's data, or two
  dtypes met), and an op without operands that is not float64;
* a parameter written in place with no model-version bump while its
  client's eval forward is cached (:class:`StaleCacheError`): the same
  fingerprints, taken when the forward is cached and re-checked on
  every cache hit.

**Concurrency probe** (:func:`install_comm_probe` /
:func:`install_registry_probe`).  Wraps a :class:`Communicator`'s
``CommStats`` and a :class:`MetricsRegistry`'s instrument table so that
any mutation performed while the owning ``_lock`` is *not* held by the
current thread raises :class:`LockViolationError`.  Only armed when the
trainer actually runs multi-threaded (``num_workers > 1``).  The probed
:class:`OwnedLock`\\ s additionally report every acquisition to a
:class:`LockOrderRecorder`, which raises :class:`LockOrderError` the
moment two locks are taken in opposite orders on different code paths,
before the schedules that actually deadlock can occur.

**Protocol monitor** (:class:`ProtocolMonitor`).  Attached to the
Communicator's ``_monitor`` hook whenever ``--sanitize`` is on (serial
runs included), it is the one checker of Algorithm 1's round order:
kind-tagged transfers must advance the phase of :data:`PROTOCOL_PHASES`
monotonically within a round (:class:`ProtocolViolationError`
otherwise).  It is also the project's one privacy check (§4.4): every
uplink must carry only what Algorithm 1 names — layer means, counts,
central moments, model weights — and never raw party data
(:class:`PrivacyEscapeError`).  Three passes run in order.  The alias
pass raises when a payload array shares memory with a registered
private tensor (``np.may_share_memory``).  The row pass raises when one
of its rows has exactly the nonzero columns of a registered sparse row
(a copy, row slice, transpose, rescaling or binarisation of the
features or the structure), or exactly the values of a registered dense
row (a node's hidden activation, view or copy, also one widened to
float64).  Both name the private tensor.  The schema pass then checks
the payload against the schema the sending client declared for its
kind (:func:`schema_mismatch`): exact keys, nesting and shapes, and
arrays of the kind's declared float dtype only (the run's dtype for
weights, float64 for statistics) — so labels, index arrays and masks,
projections, per-node activation matrices and any undeclared or
untagged kind are refused.  What it cannot see is a per-node tensor
that takes a declared shape by coincidence and is not a registered
row.  Because the transport delivers read-only views, not copies, the
monitor also fingerprints every delivered array and raises
:class:`SenderMutationError` when the sender writes to one before the
peer's next transfer back.

Sanitizers only *read* values — they touch no RNG and change no numeric
path — so sanitized and unsanitized runs are bitwise identical
(asserted against the golden-history digest in
``tests/analysis/test_sanitize.py``).

Entry point: :class:`SanitizerSession`, mirroring
:class:`repro.obs.TelemetrySession`'s install/uninstall lifecycle;
:class:`~repro.federated.trainer.TrainerConfig` ``sanitize=True`` (or
the ``--sanitize`` CLI flag) wires it into the trainer.
"""

from __future__ import annotations

import hashlib
import threading
from collections import Counter
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.autograd.tensor import (
    _DEFAULT_DTYPE,
    Tensor,
    get_tensor_sanitizer,
    set_tensor_sanitizer,
)
from repro.federated.comm import CommStats
from repro.graphs.csr import expand_rows, is_scipy_sparse


class SanitizerError(RuntimeError):
    """Base class for every invariant violation a sanitizer detects."""


class InplaceMutationError(SanitizerError):
    """A tensor captured for backward was mutated before its closure ran."""


class NonFiniteValueError(SanitizerError):
    """NaN/Inf escaped a forward op or accumulated into a gradient."""


class StaleCacheError(SanitizerError):
    """A parameter changed in place without bumping its client's model version."""


class DtypeDriftError(SanitizerError):
    """An op's output left its operands' dtype."""


class LockViolationError(SanitizerError):
    """Shared state was mutated without holding its owning lock."""


class LockOrderError(SanitizerError):
    """Two locks were acquired in opposite orders on different paths."""


class ProtocolViolationError(SanitizerError):
    """A kind-tagged transfer broke Algorithm 1's round ordering."""


class PrivacyEscapeError(SanitizerError):
    """An uplink payload aliases or copies a party's raw (private) tensors."""


class SenderMutationError(SanitizerError):
    """A sender wrote to an array it had sent before the peer answered."""


# ----------------------------------------------------------------------
# autograd sanitizer
# ----------------------------------------------------------------------
def _fingerprint(arr: np.ndarray) -> bytes:
    """Content digest standing in for a tensor version counter.

    NumPy offers no write hook on ndarrays, so mutation is detected by
    digesting the buffer at op-record time and comparing just before the
    backward closure consumes it.
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(str(arr.shape).encode())
    h.update(str(arr.dtype).encode())
    h.update(np.ascontiguousarray(arr).tobytes())
    return h.digest()


def _describe_nonfinite(arr: np.ndarray) -> str:
    finite = np.isfinite(arr)
    bad = arr.size - int(finite.sum())
    nans = int(np.isnan(arr).sum())
    infs = bad - nans
    return f"{bad}/{arr.size} non-finite entries ({nans} NaN, {infs} Inf)"


class AutogradSanitizer:
    """Forward/backward hooks enforcing the autograd invariants.

    Instances are installed via :func:`set_tensor_sanitizer` (normally
    through :class:`SanitizerSession`); ``repro.autograd.tensor`` calls
    :meth:`after_op` once per created op and :meth:`before_backward` /
    :meth:`after_backward` around each backward closure.
    """

    def after_op(
        self,
        out: Tensor,
        parents: Sequence[Tensor],
        op: str,
        track: bool,
    ) -> None:
        data = out.data
        # A run trains in one dtype, its features': every op keeps its
        # operands' dtype.
        want = {p.data.dtype for p in parents} or {np.dtype(_DEFAULT_DTYPE)}
        if want != {data.dtype}:
            raise DtypeDriftError(
                f"op `{op}` produced dtype {data.dtype} from operands of dtype "
                + ", ".join(sorted(d.name for d in want))
            )
        if not np.all(np.isfinite(data)):
            raise NonFiniteValueError(
                f"op `{op}` produced a non-finite forward output: "
                f"{_describe_nonfinite(data)} (shape {data.shape})"
            )
        if track:
            # Version-counter snapshot: any parent buffer mutated between
            # here and this op's backward closure trips before_backward.
            out._guard = tuple((p, _fingerprint(p.data)) for p in parents)

    def before_backward(self, node: Tensor) -> None:
        guard = node._guard
        if guard is None:
            return
        for parent, fp in guard:
            if _fingerprint(parent.data) != fp:
                raise InplaceMutationError(
                    f"input of op `{node._op}` (shape {parent.data.shape}) was "
                    "mutated in place after being captured for backward; its "
                    "gradient would be computed against the wrong values"
                )

    def fingerprint_parameters(self, named: Iterable[Tuple[str, Tensor]]) -> tuple:
        """``(name, fingerprint)`` of each parameter: the version snapshot
        a :class:`~repro.federated.client.Client` keeps next to its
        cached eval forward."""
        return tuple((name, _fingerprint(p.data)) for name, p in named)

    def check_parameters(
        self, named: Iterable[Tuple[str, Tensor]], fingerprints: tuple, what: str
    ) -> None:
        """Raise :class:`StaleCacheError` if a parameter's content moved
        since ``fingerprints`` while the cache ``what`` was still valid."""
        for (name, fp), (_, now) in zip(fingerprints, self.fingerprint_parameters(named)):
            if fp != now:
                raise StaleCacheError(
                    f"parameter `{name}` changed in place after {what} was "
                    "computed, with no model-version bump; the cache would "
                    "serve logits and hidden features of the old weights"
                )

    def after_backward(self, node: Tensor) -> None:
        for parent in node._parents:
            grad = parent.grad
            if grad is not None and not np.all(np.isfinite(grad)):
                raise NonFiniteValueError(
                    f"backward of op `{node._op}` accumulated a non-finite "
                    f"gradient: {_describe_nonfinite(grad)} "
                    f"(parent shape {parent.data.shape})"
                )


# ----------------------------------------------------------------------
# protocol monitor: Algorithm 1 phase order and the privacy tripwire
# ----------------------------------------------------------------------
#: (direction, kind) → phase index within one communication round.
PROTOCOL_PHASES: Dict[Tuple[str, str], int] = {
    ("down", "weights"): 0,  # broadcast global model
    ("up", "means"): 1,  # clients upload layer means
    ("down", "means"): 2,  # server returns global means
    ("up", "moments"): 3,  # clients upload central moments
    ("down", "moments"): 4,  # server returns global moments
    ("up", "weights"): 5,  # clients upload trained weights
}

PHASE_NAMES: Dict[int, str] = {
    0: "broadcast weights",
    1: "upload means",
    2: "download global means",
    3: "upload moments",
    4: "download global moments",
    5: "upload weights",
}

#: Pseudo-phase of ``end_round``: a round boundary may follow any phase
#: and resets the DFA (anything may follow it).
ROUND_BOUNDARY = -1


def transition_allowed(prev: int, nxt: int) -> bool:
    """Within a round the phase only moves forward, and an
    ``end_round`` boundary is a wildcard in both directions.

    The weight broadcast (phase 0) delimits rounds — it is the last
    event of round *r* and the first of round *r+1* — so entering
    phase 0 is legal after any phase (e.g. after phase 4 when fault
    quarantine leaves no survivors to upload weights).  Every backward
    jump to a non-zero phase (moments before means, a second means
    upload after the moment exchange, ...) is a violation."""
    if prev == ROUND_BOUNDARY or nxt == ROUND_BOUNDARY:
        return True
    return nxt >= prev or nxt == 0


#: Buffer attributes of sparse containers (scipy formats, ``CSRMatrix``).
_SPARSE_BUFFERS = ("data", "indices", "indptr", "row", "col")


def _is_sparse(m: Any) -> bool:
    """A ``CSRMatrix`` (recognised structurally by ``is_kernel_operator``) or scipy matrix."""
    return getattr(m, "is_kernel_operator", False) or is_scipy_sparse(m)


def _iter_arrays(payload: Any) -> Iterator[np.ndarray]:
    """Every ndarray inside a (possibly nested) payload structure.

    Sparse matrices count as their buffers, their ``data``/index arrays.
    """
    if isinstance(payload, np.ndarray):
        yield payload
    elif _is_sparse(payload):
        for attr in _SPARSE_BUFFERS:
            buf = getattr(payload, attr, None)
            if isinstance(buf, np.ndarray):
                yield buf
    elif isinstance(payload, dict):
        for v in payload.values():
            yield from _iter_arrays(v)
    elif isinstance(payload, (list, tuple)):
        for v in payload:
            yield from _iter_arrays(v)


def _support_key(cols: np.ndarray) -> bytes:
    """Exact key of one sparse row's support: its sorted column indices.

    Exact bytes, not a hash, so no key collision can report a
    statistic as a copy.
    """
    return np.sort(cols).astype(np.int64).tobytes()


def _sparse_row_keys(m: Any, columns: bool = False) -> Tuple[int, List[bytes]]:
    """Row width and support keys of a CSR matrix's rows, or with ``columns``
    of its transpose's rows (its columns, gathered here); empty and full
    rows are skipped, and so are explicit zeros."""
    live = m.data != 0
    outer, inner = expand_rows(m.indptr)[live], m.indices[live]
    count, width = m.shape
    if columns:
        outer, inner, count, width = inner, outer, width, count
    ends = np.cumsum(np.bincount(outer, minlength=count))[:-1]
    supports = np.split(inner[np.argsort(outer, kind="stable")], ends)
    return width, [_support_key(s) for s in supports if 0 < s.size < width]


def _dense_row_keys(arr: np.ndarray) -> List[bytes]:
    """Exact-bytes keys of a dense 2-D array's non-constant rows.

    A constant row (a dead ReLU row is all zeros) is shared by many
    nodes and can be an honest statistic, so it carries no fingerprint.
    A key is the row's bytes as float64, so a float32 row's copy widened
    to float64 matches too.  It is ``8 × width`` bytes, longer than any
    support key of the same width (8 bytes per column of a row that is
    not full), so the two kinds share one table.
    """
    rows = np.ascontiguousarray(arr, dtype=np.float64)
    if not rows.size:
        return []
    keep = rows.max(axis=1) != rows.min(axis=1)
    return [row.tobytes() for row in rows[keep]]


def _copied_row_owner(arr: np.ndarray, rows_by_width: Dict[int, Dict[bytes, str]]) -> Optional[str]:
    """Name of the private tensor ``arr``'s rows copy, if any row does.

    A 1-D or 2-D array whose last axis matches a registered row width
    has each row looked up twice: by its values as float64 (a dense
    private row, such as a node's hidden activation, or its widened
    copy) and by its support, the nonzero columns (a sparse private
    row; support ignores values, so scaled or binarised copies match
    too, and empty and full rows are skipped, as at registration).
    Tensors of one width can share a few supports (a feature column and
    a node's neighbourhood), so the owner of most matching rows is named.
    """
    if arr.ndim not in (1, 2):
        return None
    table = rows_by_width.get(arr.shape[-1])
    if not table:
        return None
    rows = np.ascontiguousarray(arr.reshape(-1, arr.shape[-1]), dtype=np.float64)
    width = rows.shape[1]
    r, cols = np.nonzero(rows)
    counts = np.bincount(r, minlength=rows.shape[0])
    owners: Counter = Counter()
    for row, count, support in zip(rows, counts, np.split(cols, np.cumsum(counts)[:-1])):
        owner = table.get(row.tobytes())
        if owner is None and 0 < count < width:
            owner = table.get(_support_key(support))
        if owner is not None:
            owners[owner] += 1
    return owners.most_common(1)[0][0] if owners else None


def _escape(kind: str, arr: np.ndarray, what: str) -> PrivacyEscapeError:
    return PrivacyEscapeError(
        f"uplink payload (kind `{kind}`, shape {arr.shape}) {what}: only "
        "statistics may cross the Communicator (§4.4), never raw "
        "features/labels/structure"
    )


def schema_mismatch(schema: Any, payload: Any, dtype=np.float64) -> Optional[str]:
    """Why ``payload`` breaks an uplink ``schema``, or ``None`` if it conforms.

    Schemas are plain data.  A dict admits a dict with exactly its keys;
    a list admits a list or tuple with one entry per element; a tuple is
    the shape of one array, each dimension an int or a ``range`` of
    allowed sizes, and the shape ``()`` also admits a Python int or
    float.  Declared arrays have ``dtype``, so an array of any other
    dtype anywhere in the payload (sparse buffers included) is refused
    first, a non-float one (labels, an index array, a mask) before a
    float of the wrong width.  ``schema`` ``None`` is an undeclared
    kind, which admits nothing.
    """
    name = np.dtype(dtype).name
    for arr in sorted(_iter_arrays(payload), key=lambda a: a.dtype.kind == "f"):
        if arr.dtype != dtype:
            form = "" if arr.dtype.kind == "f" else ", the form of labels, index arrays and masks"
            return (
                f"carries an array of dtype {arr.dtype} (shape {arr.shape}){form}; "
                f"declared arrays are {name}"
            )
    if schema is None:
        return "the client declares no schema for this kind"

    def walk(spec: Any, value: Any, path: str) -> Optional[str]:
        where = f"`{path}`" if path else "the payload"
        if isinstance(spec, dict):
            if not isinstance(value, dict) or set(value) != set(spec):
                keys = sorted(map(str, value)) if isinstance(value, dict) else type(value).__name__
                return f"{where} is {keys}, declared keys {sorted(spec)}"
            items = [(spec[k], value[k], f"{path}.{k}" if path else str(k)) for k in spec]
        elif isinstance(spec, list):
            if not isinstance(value, (list, tuple)) or len(value) != len(spec):
                size = len(value) if isinstance(value, (list, tuple)) else type(value).__name__
                return f"{where} has {size} entries, declared {len(spec)}"
            items = [(s, v, f"{path}[{i}]") for i, (s, v) in enumerate(zip(spec, value))]
        else:
            if spec == () and isinstance(value, (int, float)) and not isinstance(value, bool):
                return None
            shape = getattr(value, "shape", None)
            if not (
                isinstance(value, np.ndarray)
                and len(shape) == len(spec)
                and all(d in s if isinstance(s, range) else d == s for d, s in zip(shape, spec))
            ):
                got = f"shape {shape}" if isinstance(value, np.ndarray) else type(value).__name__
                return f"{where} is {got}, declared a {name} array of shape {spec}"
            return None
        for item in items:
            why = walk(*item)
            if why is not None:
                return why
        return None

    return walk(schema, payload, "")


def _keyed_arrays(payload: Any, key: str = "") -> Iterator[Tuple[str, np.ndarray]]:
    """``(path, array)`` of every ndarray leaf the transport delivers as a view."""
    if isinstance(payload, np.ndarray):
        yield key or "<payload>", payload
    elif isinstance(payload, dict):
        for k, v in payload.items():
            yield from _keyed_arrays(v, f"{key}.{k}" if key else str(k))
    elif isinstance(payload, (list, tuple)):
        for i, v in enumerate(payload):
            yield from _keyed_arrays(v, f"{key}[{i}]")


_OPPOSITE = {"up": "down", "down": "up"}


class ProtocolMonitor:
    """Runtime Algorithm-1 conformance checker and privacy tripwire.

    Installed on a :class:`Communicator`'s ``_monitor`` hook by
    :meth:`SanitizerSession.attach_communicator`; the transport calls
    :meth:`on_event` at the top of every collective (before metering, so
    a violation aborts the transfer with the counters untouched) and
    :meth:`on_round_end` at round boundaries.

    Phase legality is decided by the :data:`PROTOCOL_PHASES` table and
    the :func:`transition_allowed` predicate.  Untagged (``other``-kind)
    traffic carries no phase.

    **Privacy.**  Every uplink first meets the alias and row passes over
    the tensors :meth:`register_private_array` declared, then the schema
    its sender declared for its kind (:meth:`declare_uplinks`,
    :func:`schema_mismatch`).  A monitor with no schema declared checks
    no schema, and one with no private tensor checks no alias or row.

    **Sender-mutation tripwire.**  The transport delivers read-only
    views of the sender's arrays (:func:`repro.federated.comm.deliver`),
    so a sender that writes to what it sent before the peer has used it
    changes what the peer receives.  The monitor fingerprints every
    delivered array at send and re-checks a party's outstanding
    fingerprints at its next transfer in the opposite direction (a
    collective answers every party; a point-to-point transfer answers
    its own client and any collective), and checks whatever is still
    outstanding at ``end_round``.  A mismatch raises
    :class:`SenderMutationError` naming the kind, client and key.  The
    check cannot wait for ``end_round``: the barrier upload is a view of
    the live parameters, which ``_distribute``'s ``set_state``
    legitimately overwrites once the broadcast has answered it.

    The monitor is read-only — it inspects payload buffers, dtypes and
    nonzero patterns and touches no RNG — so sanitized runs remain
    bitwise identical to unsanitized ones.  Partial participation and
    fault quarantine are legal by construction: a dropped client's
    upload never reaches the transport (``ClientDropped`` is raised
    first), and skipping phases forward is always allowed.

    **Per-client mode** (``per_client=True``, armed for the async round
    engine).  The strict global lattice assumes one barrier round at a
    time; under quorum aggregation a straggler's phase-5 weight upload
    lands *inside* a later round's phase-1/2 statistics exchange, which
    is protocol-legal — each client individually still walks Algorithm 1
    in order.  Per-client mode therefore tracks one phase per client id
    (point-to-point transfers carry the id via the transport's
    ``client=`` tag; true collectives apply to every client at once);
    ``on_round_end`` resets every lattice, same as the global one — see
    the comment there for why that loses no checking power.  Untagged
    per-client traffic falls back to the global phase.
    """

    def __init__(self, per_client: bool = False) -> None:
        self._lock = threading.Lock()
        self._phase = ROUND_BOUNDARY  # pre-round: anything may start
        self._rounds_seen = 0
        #: name → buffer, for the alias pass.
        self._private: Dict[str, np.ndarray] = {}
        #: row width → {row key → private tensor name}: sparse rows keyed
        #: by support, dense rows by exact bytes.
        self._rows: Dict[int, Dict[bytes, str]] = {}
        #: name → (width, keys) it put in ``_rows``, so it can be replaced.
        self._row_keys: Dict[str, Tuple[int, List[bytes]]] = {}
        #: client id → {kind → (schema, dtype)} of what it may upload.
        self._schemas: Dict[int, Dict[str, Tuple[Any, np.dtype]]] = {}
        self.per_client = bool(per_client)
        # cid → phase; unseen clients start at the collective phase.
        self._client_phase: Dict[int, int] = {}
        self._collective_phase = ROUND_BOUNDARY
        #: (direction, client or None) → [(kind, key, array, fingerprint)]
        #: of delivered arrays no transfer the other way has answered yet.
        self._sent: Dict[Tuple[str, Optional[int]], List[tuple]] = {}

    def register_private_array(self, name: str, arr: Any, columns: bool = False) -> None:
        """Declare ``arr`` as raw party data that must never be uploaded.

        Registering a name again replaces what it registered before.
        Every array is registered for the alias pass.  A sparse matrix
        (``CSRMatrix`` or scipy) registers its values buffer there and
        each row's support for the row pass, skipping empty and full
        rows, or with ``columns`` each column's support, so that a copy
        of its transpose is caught; a dense 2-D array registers each
        non-constant row's exact bytes.
        """
        if _is_sparse(arr):
            m = arr if getattr(arr, "is_kernel_operator", False) else arr.tocsr()
            buf, (width, keys) = m.data, _sparse_row_keys(m, columns)
        else:
            buf = np.asarray(arr)
            width, keys = (buf.shape[1], _dense_row_keys(buf)) if buf.ndim == 2 else (0, [])
        with self._lock:
            old_width, old_keys = self._row_keys.pop(name, (0, []))
            old = self._rows.get(old_width, {})
            for key in old_keys:
                if old.get(key) == name:
                    del old[key]
            self._private[name] = buf
            if keys:
                table = self._rows.setdefault(width, {})
                for key in keys:
                    table.setdefault(key, name)
                self._row_keys[name] = (width, keys)

    def declare_uplinks(self, client: int, schemas: Dict[str, Any], dtype=np.float64) -> None:
        """Declare what ``client`` may upload: ``{kind: schema}``, arrays of ``dtype``.

        Weights are declared in the run's dtype, statistics in float64.
        Adds to the client's earlier declarations, replacing a kind it
        declared before.  Once any client has declared, every uplink is
        checked against its sender's schema for its kind, and an
        undeclared kind (untagged ``other`` included) raises.
        """
        with self._lock:
            self._schemas.setdefault(client, {}).update(
                {kind: (schema, np.dtype(dtype)) for kind, schema in schemas.items()}
            )

    # -- transport hooks ----------------------------------------------
    def on_event(
        self, direction: str, kind: str, payload: Any, client: Optional[int] = None
    ) -> None:
        """One collective fired: ``direction`` is ``"up"``/``"down"``.

        ``client`` is the point-to-point peer id (``None`` for true
        collectives); it selects the per-client lattice when the monitor
        runs in per-client mode and is ignored otherwise.
        """
        if direction == "up":
            self._check_privacy(kind, payload, client)
        self._check_sent(self._answered(direction, client))
        sent = [(kind, key, arr, _fingerprint(arr)) for key, arr in _keyed_arrays(payload)]
        if sent:
            with self._lock:
                self._sent.setdefault((direction, client), []).extend(sent)
        phase = PROTOCOL_PHASES.get((direction, kind))
        if phase is None:
            return
        with self._lock:
            if self.per_client and client is not None:
                prev = self._client_phase.get(client, self._collective_phase)
                self._require(prev, phase, f"client {client}")
                self._client_phase[client] = phase
            elif self.per_client:
                # A true collective (broadcast/gather) moves every client:
                # each tracked lattice must accept the transition.
                for cid in sorted(self._client_phase):
                    self._require(self._client_phase[cid], phase, f"client {cid}")
                self._require(self._collective_phase, phase, "collective")
                self._client_phase = {cid: phase for cid in self._client_phase}
                self._collective_phase = phase
            else:
                self._require(self._phase, phase, "round")
                self._phase = phase

    def _answered(self, direction: str, client: Optional[int]) -> List[tuple]:
        """Pop the outstanding sends a ``direction`` transfer answers."""
        opposite = _OPPOSITE[direction]
        with self._lock:
            if client is None:
                keys = [k for k in self._sent if k[0] == opposite]
            else:
                keys = [k for k in ((opposite, client), (opposite, None)) if k in self._sent]
            return [(k, self._sent.pop(k)) for k in keys]

    @staticmethod
    def _check_sent(outstanding: List[tuple]) -> None:
        """Raise if a sender wrote to a delivered array since its send."""
        for (direction, client), entries in outstanding:
            for kind, key, arr, fp in entries:
                if _fingerprint(arr) != fp:
                    who = "every client" if client is None else f"client {client}"
                    what = f"upload from {who}" if direction == "up" else f"download to {who}"
                    raise SenderMutationError(
                        f"`{kind}` {what}: `{key}` (shape {arr.shape}) was written "
                        "by its sender after the send, before the peer's next "
                        "transfer back; the receiver holds a read-only view of "
                        "that buffer and would see the write"
                    )

    def _require(self, prev: int, phase: int, who: str) -> None:
        """Raise unless ``prev → phase`` is lattice-legal (lock held)."""
        if not transition_allowed(prev, phase):
            raise ProtocolViolationError(
                f"Algorithm 1 phase order violated ({who}, round "
                # guarded-by(self._lock, held by caller)
                f"{self._rounds_seen}): `{PHASE_NAMES[phase]}` cannot "
                f"follow `{PHASE_NAMES[prev]}` within a round"
            )

    def on_round_end(self) -> None:
        with self._lock:
            outstanding, self._sent = list(self._sent.items()), {}
        self._check_sent(outstanding)
        with self._lock:
            # The boundary resets every lattice, per-client ones
            # included: a round may legally end without a model push
            # (all arrivals quarantined or over-stale), and the next
            # exchange then starts from clients' local states — exactly
            # what the barrier lattice permits after its reset.  A
            # straggler crossing the boundary mid-protocol stays legal
            # too: its weight upload may follow a boundary, and its
            # catch-up model download is phase 0.  Intra-round
            # interleaving is still fully checked — an in-flight client
            # is masked out of the exchange, so its late upload can
            # never split its *own* round's phases.
            self._phase = ROUND_BOUNDARY
            self._collective_phase = ROUND_BOUNDARY
            self._client_phase = {cid: ROUND_BOUNDARY for cid in self._client_phase}
            self._rounds_seen += 1

    # -- privacy ------------------------------------------------------
    def _check_privacy(self, kind: str, payload: Any, client: Optional[int]) -> None:
        with self._lock:
            private = list(self._private.items())
            rows = self._rows
            schemas = self._schemas
        arrays = [arr for arr in _iter_arrays(payload) if arr.size]
        # Aliases first, over every array: an uploaded container is then
        # named by the private tensor it shares, not by its index buffers.
        for arr in arrays:
            for name, priv in private:
                if priv.size and np.may_share_memory(arr, priv):
                    raise _escape(kind, arr, f"aliases private party tensor `{name}`")
        # Integer and bool arrays are left to the schema, which refuses
        # them as the form of labels, index arrays and masks.
        for arr in arrays:
            owner = None if arr.dtype.kind in "biu" else _copied_row_owner(arr, rows)
            if owner is not None:
                raise _escape(kind, arr, f"copies rows of private party tensor `{owner}`")
        if not schemas:
            return
        # A gather carries one payload per client, in client order.
        senders = [(client, payload)] if client is not None else enumerate(payload)
        for cid, sent in senders:
            schema, dtype = schemas.get(cid, {}).get(kind, (None, np.float64))
            why = schema_mismatch(schema, sent, dtype)
            if why is not None:
                raise PrivacyEscapeError(
                    f"uplink payload (kind `{kind}`, client {cid}) fails its "
                    f"declared schema: {why}; only the statistics and "
                    "weights of Algorithm 1 may cross the Communicator (§4.4)"
                )


# ----------------------------------------------------------------------
# concurrency probe
# ----------------------------------------------------------------------
class LockOrderRecorder:
    """Runtime lock-order tracking: the project's deadlock-order check.

    Each thread keeps a stack of the (probed) locks it currently holds;
    acquiring ``b`` while holding ``a`` records the order edge ``a → b``
    in a process-global graph.  If the reverse order was ever recorded,
    the acquisition raises :class:`LockOrderError` immediately — on the
    *first* inconsistent run, not only on the unlucky interleaving that
    actually deadlocks.
    """

    def __init__(self) -> None:
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._after: Dict[str, Set[str]] = {}

    def _held(self) -> List[str]:
        held = getattr(self._tls, "held", None)
        if held is None:
            # threading.local: each thread sees only its own attribute.
            held = self._tls.held = []
        return held

    def _path(self, src: str, dst: str) -> Optional[List[str]]:
        """Edge path ``src → … → dst`` in the order graph, if any."""
        stack: List[Tuple[str, List[str]]] = [(src, [src])]
        seen = {src}
        while stack:
            node, path = stack.pop()
            if node == dst:
                return path
            for nxt in sorted(self._after.get(node, ())):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append((nxt, path + [nxt]))
        return None

    def acquired(self, name: str) -> None:
        held = self._held()
        for h in held:
            if h == name:
                continue
            with self._lock:
                path = self._path(name, h)
                if path is not None:
                    order = " -> ".join(path)
                    raise LockOrderError(
                        f"lock-order cycle: thread "
                        f"{threading.current_thread().name!r} acquires "
                        f"`{name}` while holding `{h}`, but the recorded "
                        f"order is {order} — opposite nesting on another "
                        "path can deadlock"
                    )
                self._after.setdefault(h, set()).add(name)
        held.append(name)

    def released(self, name: str) -> None:
        held = self._held()
        for i in range(len(held) - 1, -1, -1):
            if held[i] == name:
                del held[i]
                break


class OwnedLock:
    """A lock that knows which thread holds it.

    Drop-in for ``threading.Lock`` in ``with``-statement use; mutation
    probes consult :attr:`held_by_me` to assert the caller entered the
    critical section before touching shared state.  When constructed
    with a :class:`LockOrderRecorder` every acquisition/release is also
    reported under the lock's ``name`` for cycle detection.
    """

    def __init__(
        self,
        inner: Optional[threading.Lock] = None,
        name: str = "lock",
        recorder: Optional[LockOrderRecorder] = None,
    ) -> None:
        self._inner = inner if inner is not None else threading.Lock()
        self._owner: Optional[int] = None
        self._name = name
        self._recorder = recorder

    @property
    def held_by_me(self) -> bool:
        return self._owner == threading.get_ident()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        got = self._inner.acquire(blocking, timeout)
        if got:
            self._owner = threading.get_ident()
            if self._recorder is not None:
                try:
                    self._recorder.acquired(self._name)
                except LockOrderError:
                    # Don't leave the lock held behind the error.
                    self._owner = None
                    self._inner.release()
                    raise
        return got

    def release(self) -> None:
        if self._recorder is not None:
            self._recorder.released(self._name)
        self._owner = None
        self._inner.release()

    def __enter__(self) -> "OwnedLock":
        self.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self.release()

    def locked(self) -> bool:
        return self._inner.locked()


def _require(lock: OwnedLock, what: str) -> None:
    if not lock.held_by_me:
        raise LockViolationError(
            f"{what} mutated without holding its lock "
            f"(thread {threading.current_thread().name!r})"
        )


class GuardedCommStats(CommStats):
    """``CommStats`` whose counter writes assert lock ownership.

    Created via :meth:`adopt`; behaves exactly like the stats object it
    replaced (``copy()`` / ``__sub__`` still return plain ``CommStats``
    snapshots) but every attribute write outside the owning lock raises
    :class:`LockViolationError`.
    """

    @classmethod
    def adopt(cls, stats: CommStats, lock: OwnedLock) -> "GuardedCommStats":
        inst = cls(
            uplink_bytes=stats.uplink_bytes,
            downlink_bytes=stats.downlink_bytes,
            uplink_messages=stats.uplink_messages,
            downlink_messages=stats.downlink_messages,
            rounds=stats.rounds,
            by_kind={k: dict(v) for k, v in stats.by_kind.items()},
        )
        object.__setattr__(inst, "_guard_lock", lock)
        return inst

    def __setattr__(self, name: str, value) -> None:
        lock = self.__dict__.get("_guard_lock")
        if lock is not None:  # None only while dataclass __init__ runs
            _require(lock, f"CommStats.{name}")
        object.__setattr__(self, name, value)


class GuardedDict(dict):
    """Registry instrument table asserting lock ownership on writes."""

    def __init__(self, data, lock: OwnedLock) -> None:
        self.guard_lock = lock
        super().__init__(data)

    def _check(self, what: str) -> None:
        _require(self.guard_lock, what)

    def __setitem__(self, key, value) -> None:
        self._check(f"MetricsRegistry metric {key!r}")
        super().__setitem__(key, value)

    def __delitem__(self, key) -> None:
        self._check(f"MetricsRegistry metric {key!r}")
        super().__delitem__(key)

    def setdefault(self, key, default=None):
        self._check(f"MetricsRegistry metric {key!r}")
        return super().setdefault(key, default)

    def pop(self, *args):
        self._check("MetricsRegistry metric table")
        return super().pop(*args)

    def popitem(self):
        self._check("MetricsRegistry metric table")
        return super().popitem()

    def clear(self) -> None:
        self._check("MetricsRegistry metric table")
        super().clear()

    def update(self, *args, **kwargs) -> None:
        self._check("MetricsRegistry metric table")
        super().update(*args, **kwargs)


def install_comm_probe(comm, recorder: Optional[LockOrderRecorder] = None) -> None:
    """Arm lock-ownership checking on a :class:`Communicator` (idempotent).

    Replaces ``comm._lock`` with an :class:`OwnedLock` (wrapping the
    original, so existing ``with comm._lock`` sites keep working) and
    ``comm.stats`` with a :class:`GuardedCommStats` bound to it.  With a
    ``recorder`` the lock also participates in lock-order tracking.
    """
    if isinstance(comm.stats, GuardedCommStats):
        return
    if not isinstance(comm._lock, OwnedLock):
        comm._lock = OwnedLock(
            comm._lock, name="Communicator._lock", recorder=recorder
        )
    comm.stats = GuardedCommStats.adopt(comm.stats, comm._lock)


def install_registry_probe(registry, recorder: Optional[LockOrderRecorder] = None) -> None:
    """Arm lock-ownership checking on a :class:`MetricsRegistry` (idempotent).

    No-op for the null registry (nothing mutates) and for registries
    already probed.
    """
    if not getattr(registry, "enabled", False):
        return
    if isinstance(registry._metrics, GuardedDict):
        return
    if not isinstance(registry._lock, OwnedLock):
        registry._lock = OwnedLock(
            registry._lock, name="MetricsRegistry._lock", recorder=recorder
        )
    registry._metrics = GuardedDict(registry._metrics, registry._lock)


# ----------------------------------------------------------------------
# session
# ----------------------------------------------------------------------
class SanitizerSession:
    """Install/uninstall lifecycle for the sanitizers (cf. TelemetrySession).

    Parameters
    ----------
    concurrency:
        Arm the lock-ownership probes.  The trainer passes
        ``executor.parallel`` so single-threaded runs skip probing
        objects that only the coordinating thread touches.
    per_client_protocol:
        Track one Algorithm-1 phase lattice per client instead of one
        global lattice — required under the async round engine, where
        stragglers legally interleave across server rounds.
    """

    def __init__(
        self,
        concurrency: bool = False,
        per_client_protocol: bool = False,
    ) -> None:
        self.autograd = AutogradSanitizer()
        self.protocol = ProtocolMonitor(per_client=per_client_protocol)
        self.lock_order = LockOrderRecorder()
        self.concurrency = bool(concurrency)
        self._prev: Optional[AutogradSanitizer] = None
        self._installed = False

    @property
    def installed(self) -> bool:
        return self._installed

    def install(self) -> "SanitizerSession":
        if self._installed:
            raise RuntimeError("sanitizer session already installed")
        self._prev = set_tensor_sanitizer(self.autograd)
        self._installed = True
        return self

    def uninstall(self) -> None:
        if not self._installed:
            return
        # Restore whatever was active before (normally None); if another
        # session installed over us the latest-wins semantics still hold.
        if get_tensor_sanitizer() is self.autograd:
            set_tensor_sanitizer(self._prev)
        self._installed = False

    def __enter__(self) -> "SanitizerSession":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- probes -------------------------------------------------------
    def attach_communicator(self, comm) -> None:
        """Arm the protocol monitor; under ``concurrency`` also probe stats.

        The :class:`ProtocolMonitor` is attached serial and parallel
        alike (it guards protocol order and privacy, not locking); the
        stats/lock probes stay concurrency-gated.
        """
        comm._monitor = self.protocol
        if self.concurrency:
            install_comm_probe(comm, recorder=self.lock_order)

    def attach_registry(self, registry) -> None:
        """Probe a MetricsRegistry's table (no-op unless ``concurrency``)."""
        if self.concurrency:
            install_registry_probe(registry, recorder=self.lock_order)

    def register_private_arrays(self, named: Iterable[Tuple[str, Any]]) -> None:
        """Feed raw party tensors (dense or sparse) to the privacy tripwire."""
        for name, arr in named:
            self.protocol.register_private_array(name, arr)


__all__ = [
    "PROTOCOL_PHASES",
    "PHASE_NAMES",
    "ROUND_BOUNDARY",
    "transition_allowed",
    "schema_mismatch",
    "SanitizerError",
    "InplaceMutationError",
    "NonFiniteValueError",
    "DtypeDriftError",
    "StaleCacheError",
    "LockViolationError",
    "LockOrderError",
    "ProtocolViolationError",
    "PrivacyEscapeError",
    "SenderMutationError",
    "AutogradSanitizer",
    "ProtocolMonitor",
    "LockOrderRecorder",
    "OwnedLock",
    "GuardedCommStats",
    "GuardedDict",
    "install_comm_probe",
    "install_registry_probe",
    "SanitizerSession",
]

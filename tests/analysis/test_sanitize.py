"""Runtime-sanitizer tests: autograd guards, lock probes, bitwise parity.

The three satellite requirements are all here: in-place mutation raises
with the offending op named; the NaN tripwire catches corruption seeded
through ``repro.federated.faults``; and sanitizer-on histories are
bitwise identical to sanitizer-off (pinned to the golden digest).
"""

import copy
import threading

import numpy as np
import pytest

from repro.analysis.sanitize import (
    AutogradSanitizer,
    DtypeDriftError,
    GuardedCommStats,
    GuardedDict,
    InplaceMutationError,
    LockViolationError,
    NonFiniteValueError,
    OwnedLock,
    PHASE_NAMES,
    PROTOCOL_PHASES,
    PrivacyEscapeError,
    ROUND_BOUNDARY,
    SanitizerSession,
    install_comm_probe,
    install_registry_probe,
    transition_allowed,
)
from repro.autograd import Tensor, get_tensor_sanitizer
from repro.core import FedOMDConfig, FedOMDTrainer
from repro.federated.comm import Communicator
from repro.federated.faults import FaultPlan
from repro.graphs import load_dataset, louvain_partition
from repro.obs import MetricsRegistry, NULL_REGISTRY

from tests.federated.test_golden_history import GOLDEN_DIGEST, digest


@pytest.fixture
def session():
    with SanitizerSession() as s:
        yield s


def small_parts():
    g = load_dataset("cora", seed=0, scale=0.12)
    return louvain_partition(g, 3, np.random.default_rng(0)).parts


# ----------------------------------------------------------------------
# autograd sanitizer
# ----------------------------------------------------------------------
class TestAutogradSanitizer:
    def test_inplace_mutation_names_offending_op(self, session):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        out = a * 3.0
        a.data[0, 0] = 99.0
        with pytest.raises(InplaceMutationError, match="op `mul`"):
            out.sum().backward()

    def test_clean_backward_passes(self, session):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        ((a * 3.0) ** 2).sum().backward()
        np.testing.assert_allclose(a.grad, 18.0 * np.ones((2, 2)))

    def test_nan_forward_names_op(self, session):
        a = Tensor(np.array([1.0, np.nan]), requires_grad=True)
        with pytest.raises(NonFiniteValueError, match="op `exp`"):
            a.exp()

    def test_inf_forward_trips(self, session):
        a = Tensor(np.array([0.0]), requires_grad=True)
        with np.errstate(divide="ignore"):
            with pytest.raises(NonFiniteValueError, match="Inf"):
                1.0 / a

    def test_nan_gradient_trips_with_provenance(self, session):
        # sqrt'(0) = inf: the forward output is finite, the gradient isn't.
        a = Tensor(np.array([0.0, 4.0]), requires_grad=True)
        out = a.sqrt()
        with np.errstate(divide="ignore"):
            with pytest.raises(NonFiniteValueError, match="backward of op `sqrt`"):
                out.sum().backward()

    def test_dtype_drift_detected(self):
        san = AutogradSanitizer()
        bad = Tensor(np.ones(3))
        bad.data = bad.data.astype(np.float32)
        with pytest.raises(DtypeDriftError, match="float32"):
            san.after_op(bad, (), "cast", track=False)

    def test_dtype_drift_is_judged_against_the_operands(self):
        san = AutogradSanitizer()
        f32 = Tensor(np.ones(3, dtype=np.float32))
        san.after_op(Tensor(np.ones(3, dtype=np.float32)), (f32,), "mul", track=False)
        with pytest.raises(DtypeDriftError, match="float64 from operands of dtype float32"):
            san.after_op(Tensor(np.ones(3)), (f32,), "mul", track=False)
        with pytest.raises(DtypeDriftError, match="operands of dtype float32, float64"):
            san.after_op(Tensor(np.ones(3)), (f32, Tensor(np.ones(3))), "add", track=False)

    def test_no_guard_recorded_when_untracked(self, session):
        from repro.autograd import no_grad

        a = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            out = a * 2.0
        assert out._guard is None

    def test_session_installs_and_uninstalls(self):
        assert get_tensor_sanitizer() is None
        with SanitizerSession() as s:
            assert get_tensor_sanitizer() is s.autograd
        assert get_tensor_sanitizer() is None

    def test_uninstall_on_error_path(self):
        s = SanitizerSession().install()
        try:
            assert get_tensor_sanitizer() is s.autograd
        finally:
            s.uninstall()
        assert get_tensor_sanitizer() is None

    def test_double_install_rejected(self):
        with SanitizerSession() as s:
            with pytest.raises(RuntimeError, match="already installed"):
                s.install()


# ----------------------------------------------------------------------
# concurrency probe
# ----------------------------------------------------------------------
class TestOwnedLock:
    def test_ownership_tracking(self):
        lock = OwnedLock()
        assert not lock.held_by_me
        with lock:
            assert lock.held_by_me
        assert not lock.held_by_me

    def test_other_thread_not_owner(self):
        lock = OwnedLock()
        seen = {}
        lock.acquire()
        t = threading.Thread(target=lambda: seen.setdefault("held", lock.held_by_me))
        t.start()
        t.join()
        lock.release()
        assert seen["held"] is False


class TestCommProbe:
    def test_unlocked_mutation_raises(self):
        comm = Communicator(num_clients=2)
        install_comm_probe(comm)
        with pytest.raises(LockViolationError, match="CommStats.rounds"):
            comm.stats.rounds += 1

    def test_locked_mutation_passes_and_counters_exact(self):
        comm = Communicator(num_clients=2)
        install_comm_probe(comm)
        comm.broadcast({"w": np.zeros(4)})
        comm.end_round()
        assert comm.stats.rounds == 1
        assert comm.stats.downlink_bytes == 2 * 32

    def test_probe_idempotent(self):
        comm = Communicator(num_clients=2)
        install_comm_probe(comm)
        stats = comm.stats
        install_comm_probe(comm)
        assert comm.stats is stats

    def test_snapshot_returns_plain_stats(self):
        comm = Communicator(num_clients=2)
        install_comm_probe(comm)
        snap = comm.snapshot()
        assert not isinstance(snap, GuardedCommStats)
        snap.rounds += 1  # plain copies stay freely mutable

    def test_stats_delta_still_works(self):
        comm = Communicator(num_clients=2)
        install_comm_probe(comm)
        before = comm.snapshot()
        comm.broadcast({"w": np.zeros(4)})
        delta = comm.snapshot() - before
        assert delta.downlink_bytes == 2 * 32


class TestRegistryProbe:
    def test_unlocked_insert_raises(self):
        reg = MetricsRegistry()
        install_registry_probe(reg)
        with pytest.raises(LockViolationError, match="boom"):
            reg._metrics["boom"] = 1

    def test_locked_instrument_creation_passes(self):
        reg = MetricsRegistry()
        install_registry_probe(reg)
        reg.counter("ok").inc()
        assert reg.counter("ok").value == 1

    def test_existing_instruments_preserved(self):
        reg = MetricsRegistry()
        reg.counter("pre").inc(5)
        install_registry_probe(reg)
        assert reg.counter("pre").value == 5

    def test_null_registry_skipped(self):
        install_registry_probe(NULL_REGISTRY)  # must not blow up
        assert not isinstance(getattr(NULL_REGISTRY, "_metrics", None), GuardedDict)

    def test_probe_idempotent(self):
        reg = MetricsRegistry()
        install_registry_probe(reg)
        table = reg._metrics
        install_registry_probe(reg)
        assert reg._metrics is table


# ----------------------------------------------------------------------
# trainer integration
# ----------------------------------------------------------------------
class TestTrainerIntegration:
    def test_nan_tripwire_catches_fault_corruption(self):
        # Every upload corrupted to NaN, quarantine off: the poisoned
        # global model reaches round 1's forward pass, where the
        # sanitizer names the first op that went non-finite.
        plan = FaultPlan.from_spec("corrupt=1.0:mode=nan", seed=0)
        cfg = FedOMDConfig(
            max_rounds=3,
            patience=50,
            hidden=16,
            sanitize=True,
            quarantine_nonfinite=False,
        )
        trainer = FedOMDTrainer(small_parts(), cfg, seed=0, faults=plan)
        with pytest.raises(NonFiniteValueError, match="op `"):
            trainer.run()
        # The try/finally in run() must not leak the sanitizer.
        assert get_tensor_sanitizer() is None

    def test_quarantine_defuses_the_same_corruption(self):
        # Same fault plan, quarantine on: NaN uploads never reach FedAvg,
        # so the sanitized run completes.
        plan = FaultPlan.from_spec("corrupt=1.0:mode=nan", seed=0)
        cfg = FedOMDConfig(max_rounds=2, patience=50, hidden=16, sanitize=True)
        history = FedOMDTrainer(small_parts(), cfg, seed=0, faults=plan).run()
        assert len(history) == 2

    def test_sanitized_history_bitwise_identical_to_golden(self):
        cfg = FedOMDConfig(max_rounds=3, patience=50, hidden=16, sanitize=True)
        history = FedOMDTrainer(small_parts(), cfg, seed=0).run()
        assert digest(history) == GOLDEN_DIGEST

    def test_sanitized_parallel_run_bitwise_identical_to_golden(self):
        # num_workers=2 arms the concurrency probes too; the trajectory
        # must still match the serial unsanitized golden digest.
        cfg = FedOMDConfig(
            max_rounds=3, patience=50, hidden=16, sanitize=True, num_workers=2
        )
        history = FedOMDTrainer(small_parts(), cfg, seed=0).run()
        assert digest(history) == GOLDEN_DIGEST

    def test_serial_run_leaves_comm_unprobed(self):
        cfg = FedOMDConfig(max_rounds=1, patience=50, hidden=16, sanitize=True)
        trainer = FedOMDTrainer(small_parts(), cfg, seed=0)
        assert not isinstance(trainer.comm.stats, GuardedCommStats)

    def test_parallel_run_probes_comm(self):
        cfg = FedOMDConfig(
            max_rounds=1, patience=50, hidden=16, sanitize=True, num_workers=2
        )
        trainer = FedOMDTrainer(small_parts(), cfg, seed=0)
        assert isinstance(trainer.comm.stats, GuardedCommStats)


# ----------------------------------------------------------------------
# protocol monitor: Algorithm 1 phase order and the privacy tripwire
# ----------------------------------------------------------------------
class TestPhaseTable:
    def test_six_phases_named(self):
        assert sorted(PROTOCOL_PHASES.values()) == list(range(6))
        assert set(PHASE_NAMES) >= set(range(6))

    def test_forward_transitions_allowed(self):
        for p in range(6):
            for q in range(p, 6):
                assert transition_allowed(p, q)

    def test_backward_transitions_rejected_except_broadcast(self):
        for p in range(1, 6):
            for q in range(1, p):
                assert not transition_allowed(p, q)
            assert transition_allowed(p, 0)  # round delimiter

    def test_round_boundary_is_wildcard(self):
        for p in range(6):
            assert transition_allowed(p, ROUND_BOUNDARY)
            assert transition_allowed(ROUND_BOUNDARY, p)


class TestProtocolMonitor:
    def _monitor(self):
        from repro.analysis.sanitize import ProtocolMonitor

        return ProtocolMonitor()

    def test_full_golden_round_serial_accepted(self):
        m = self._monitor()
        for direction, kind in [
            ("down", "weights"),
            ("up", "means"),
            ("down", "means"),
            ("up", "moments"),
            ("down", "moments"),
            ("up", "weights"),
        ]:
            m.on_event(direction, kind, np.zeros(2))
        m.on_round_end()
        m.on_event("down", "weights", np.zeros(2))  # next round

    def test_partial_participation_may_skip_phases(self):
        m = self._monitor()
        m.on_event("down", "weights", None)
        m.on_event("up", "moments", np.zeros(2))  # means phase skipped
        m.on_event("down", "weights", None)  # no survivors: no weight upload

    def test_swapped_means_moments_rejected(self):
        from repro.analysis.sanitize import ProtocolViolationError

        m = self._monitor()
        m.on_event("up", "moments", np.zeros(2))
        with pytest.raises(ProtocolViolationError, match="upload means"):
            m.on_event("up", "means", np.zeros(2))

    def test_end_round_resets_the_phase(self):
        m = self._monitor()
        m.on_event("up", "moments", np.zeros(2))
        m.on_round_end()
        m.on_event("up", "means", np.zeros(2))  # fresh round: legal

    def test_untagged_traffic_carries_no_phase(self):
        m = self._monitor()
        m.on_event("up", "moments", np.zeros(2))
        m.on_event("up", "other", np.zeros(2))
        m.on_event("down", "other", None)

    def test_violation_through_communicator_leaves_stats_unmetered(self):
        from repro.analysis.sanitize import ProtocolViolationError

        comm = Communicator(num_clients=2)
        s = SanitizerSession()
        s.attach_communicator(comm)
        comm.send_to_server(0, np.zeros(3), kind="moments")
        with pytest.raises(ProtocolViolationError):
            comm.send_to_server(0, np.zeros(3), kind="means")
        # _notify runs before metering: the illegal transfer moved nothing.
        assert comm.stats.uplink_bytes == 24
        assert comm.stats.uplink_messages == 1

    def test_privacy_tripwire_catches_aliasing_upload(self):
        from repro.analysis.sanitize import PrivacyEscapeError

        m = self._monitor()
        x = np.arange(12.0).reshape(3, 4)
        m.register_private_array("client0.graph.x", x)
        # A statistic passes.  (This x's column mean is bitwise its middle
        # row, which the row pass reports as a copy, so the sum stands in.)
        m.on_event("up", "means", x.sum(axis=0))
        with pytest.raises(PrivacyEscapeError, match="client0.graph.x"):
            m.on_event("up", "means", {"h": [x[1:]]})  # a view, nested

    def test_downlink_never_privacy_checked(self):
        m = self._monitor()
        x = np.zeros(4)
        m.register_private_array("x", x)
        m.declare_uplinks(0, {"means": [(4,)]})
        m.on_event("down", "weights", x)  # server→client may carry anything

    def test_reregistering_replaces_the_rows(self):
        m = self._monitor()
        old, new = np.arange(8.0).reshape(2, 4), np.arange(8.0, 16.0).reshape(2, 4)
        m.register_private_array("client0.hidden[0]", old)
        m.register_private_array("client0.hidden[0]", new)
        m.on_event("up", "means", old[0].copy())  # the previous version is gone
        with pytest.raises(PrivacyEscapeError, match=r"client0\.hidden\[0\]`"):
            m.on_event("up", "means", new[1].copy())

    def test_constant_rows_carry_no_fingerprint(self):
        # A dead ReLU row is all zeros, like many an honest statistic.
        m = self._monitor()
        m.register_private_array("h", np.array([[0.0, 0.0], [1.0, 2.0]]))
        m.on_event("up", "means", np.zeros(2))

    def test_one_node_party_mean_is_its_row(self):
        # A one-node party's layer mean is bitwise its node's activation
        # row: a true disclosure, not exempted.
        m = self._monitor()
        h = np.array([[0.25, 0.5, 0.0]])
        m.register_private_array("client0.hidden[0]", h)
        with pytest.raises(PrivacyEscapeError, match=r"hidden\[0\]`"):
            m.on_event("up", "means", {"means": [h.mean(axis=0)], "n": 1.0})

    def test_nothing_declared_checks_no_schema(self):
        m = self._monitor()
        m.on_event("up", "other", {"anything": np.arange(3)})


class TestRuntimePrivacyEscape:
    def test_injected_raw_feature_upload_caught(self):
        # A trainer whose round uploads a party's raw feature matrix
        # from one of its own methods trips the monitor.
        from repro.analysis.sanitize import PrivacyEscapeError

        class LeakyTrainer(FedOMDTrainer):
            def begin_round(self, round_idx):
                c = self.clients[0]
                self.comm.send_to_server(c.cid, c.graph.x, kind="means")
                super().begin_round(round_idx)

        cfg = FedOMDConfig(max_rounds=1, patience=50, hidden=16, sanitize=True)
        trainer = LeakyTrainer(small_parts(), cfg, seed=0)
        with pytest.raises(PrivacyEscapeError, match="graph.x"):
            trainer.run()

    @pytest.mark.parametrize("field", ["adj", "s_op", "x"])
    def test_injected_sparse_upload_caught(self, field):
        # Sparse containers reach the tripwire as their buffers: the raw
        # adjacency, the cached S̃ operator and the CSR features are private.
        from repro.analysis.sanitize import PrivacyEscapeError

        class LeakyTrainer(FedOMDTrainer):
            def begin_round(self, round_idx):
                c = self.clients[0]
                self.comm.send_to_server(c.cid, getattr(c.graph, field), kind="means")
                super().begin_round(round_idx)

        cfg = FedOMDConfig(max_rounds=1, patience=50, hidden=16, sanitize=True)
        trainer = LeakyTrainer(small_parts(), cfg, seed=0)
        with pytest.raises(PrivacyEscapeError, match=f"graph.{field}"):
            trainer.run()

    def test_reverse_operator_upload_caught(self):
        # X's CSR arrays are the CSC arrays of Xᵀ: a hand-built Xᵀ
        # container over them shares X's values buffer.
        import scipy.sparse as sp

        from repro.analysis.sanitize import PrivacyEscapeError, ProtocolMonitor

        g = small_parts()[0]
        monitor = ProtocolMonitor()
        monitor.register_private_array("graph.x", g.x.data)
        x_t = sp.csc_matrix((g.x.data, g.x.indices, g.x.indptr), shape=g.x.shape[::-1])
        np.testing.assert_array_equal(x_t.toarray(), g.x.toarray().T)
        with pytest.raises(PrivacyEscapeError, match="graph.x"):
            monitor.on_event("up", "means", {"leak": x_t})

    def test_statistics_only_run_stays_clean(self):
        cfg = FedOMDConfig(max_rounds=1, patience=50, hidden=16, sanitize=True)
        history = FedOMDTrainer(small_parts(), cfg, seed=0).run()
        assert len(history) == 1


@pytest.fixture(scope="module")
def registered_trainer():
    """A sanitized FedOMD trainer after one moment exchange.

    Every party's private tensors are registered, its hidden activations
    included, and its uplink schemas declared; ``parts`` are the
    caller's full-width party graphs.  It trains in float32 and uploads
    float64 statistics, as every run does.
    """
    parts = small_parts()
    cfg = FedOMDConfig(max_rounds=1, patience=50, hidden=16, sanitize=True)
    trainer = FedOMDTrainer(parts, cfg, seed=0)
    trainer.begin_round(0)
    trainer.comm.end_round()
    trainer.parts = parts
    return trainer


def honest_means(trainer, cid=0):
    """Client ``cid``'s layer means, as its means upload carries them (float64)."""
    return [h.mean(axis=0, dtype=np.float64) for h in trainer.clients[cid].eval_forward()[1]]


#: Uploads of raw party data, each with the pattern naming the tensor in
#: the error: the private tensor it aliases or copies, or the dtype of a
#: label-, index- or mask-like array.  ``x_dense`` in an id names the
#: dense copy ``x.toarray()``.
LEAKS = {
    "x": (lambda g: g.x, r"graph\.x`"),
    "x_dense": (lambda g: g.x.toarray(), r"graph\.x`"),
    "x_dense[idx]": (lambda g: g.x.toarray()[np.flatnonzero(g.train_mask)], r"graph\.x`"),
    "x_dense[0]": (lambda g: g.x.toarray()[0], r"graph\.x`"),
    "2*x.toarray()": (lambda g: 2 * g.x.toarray(), r"graph\.x`"),
    "(x_dense>0).astype(float)": (
        lambda g: (g.x.toarray() > 0).astype(float), r"graph\.x`"
    ),
    "x_dense.T": (lambda g: g.x.toarray().T, r"graph\.x\.T`"),
    "deepcopy(x)": (lambda g: copy.deepcopy(g.x), r"dtype int"),
    "adj.toarray()": (lambda g: g.adj.toarray(), r"graph\.adj`"),
    "s_op.toarray()": (lambda g: g.s_op.toarray(), r"graph\.s_op`"),
    "adj.copy()": (lambda g: g.adj.copy(), r"dtype int"),
    "y": (lambda g: g.y, r"graph\.y`"),
    "y.copy()": (lambda g: g.y.copy(), r"dtype int64"),
    "y[train_mask]": (lambda g: g.y[g.train_mask], r"dtype int64"),
    "edge_index": (lambda g: g.edge_index, r"dtype int64"),
    "train_mask": (lambda g: g.train_mask, r"dtype bool"),
    # The caller's full-width features, of which a party's are a copy.
    "part.x_dense": (lambda g: g.x.toarray(), r"part\.x`"),
    "part.x_dense[0]": (lambda g: g.x.toarray()[0], r"part\.x`"),
}

#: Tensors derived per node, each uploaded in place of the first layer
#: mean: a projection, a shift, a column slice, a label cast (n_i is not
#: a layer width here), one-hot labels, and a node's hidden activations,
#: whole, as a row view, as a row copy and as a row copy widened to the
#: statistics' float64.  The features are widened too, so each twin is
#: judged on its shape, alias or rows, not on its dtype.
DERIVED = {
    "x_dense @ w": (
        lambda g, h: g.x.toarray() @ np.ones((g.num_features, 16)), r"`means\[0\]` is shape"
    ),
    "x_dense + 1": (lambda g, h: g.x.toarray().astype(float) + 1, r"`means\[0\]` is shape"),
    "x_dense[:, :5]": (
        lambda g, h: g.x.toarray().astype(float)[:, :5], r"`means\[0\]` is shape"
    ),
    "y.astype(float)": (lambda g, h: g.y.astype(float), r"`means\[0\]` is shape"),
    "one-hot y": (lambda g, h: np.eye(g.num_classes)[g.y], r"`means\[0\]` is shape"),
    "hidden[0]": (lambda g, h: h[0], r"aliases private party tensor `client0\.hidden\[0\]`"),
    "hidden[0][0]": (lambda g, h: h[0][0], r"aliases private party tensor `client0\.hidden\[0\]`"),
    "hidden[0][0].copy()": (
        lambda g, h: h[0][0].copy(), r"copies rows of private party tensor `client0\.hidden\[0\]`"
    ),
    "hidden[0][0].astype(float64)": (
        lambda g, h: h[0][0].astype(np.float64),
        r"copies rows of private party tensor `client0\.hidden\[0\]`",
    ),
}

#: Uploads that break the declared means schema: (kind, payload from the
#: honest means, pattern).
SCHEMA_BREAKS = {
    "extra key": ("means", lambda m: {"means": m, "n": 3.0, "extra": 1.0}, r"declared keys"),
    "wrong width": ("means", lambda m: {"means": [m[0][:-1], m[1]], "n": 3.0}, r"shape \(15,\)"),
    "2-D statistic": ("means", lambda m: {"means": [m[0][None], m[1]], "n": 3.0}, r"shape \(1, 16\)"),
    "int array": (
        "means", lambda m: {"means": [x.astype(np.int64) for x in m], "n": 3.0}, r"dtype int64"
    ),
    "undeclared kind": ("other", lambda m: {"means": m, "n": 3.0}, r"no schema for this kind"),
    "missing count": ("means", lambda m: {"means": m}, r"declared keys"),
}


class TestPrivacyTwins:
    """Copies, slices and transposes of party data, not only aliases."""

    @pytest.mark.parametrize("upload", sorted(LEAKS))
    def test_raw_party_data_upload_caught(self, registered_trainer, upload):
        build, names = LEAKS[upload]
        owner = registered_trainer.parts if upload.startswith("part.") else [
            c.graph for c in registered_trainer.clients
        ]
        payload = {"rows": [build(owner[0])]}
        with pytest.raises(PrivacyEscapeError, match=names):
            registered_trainer.comm.send_to_server(0, payload)

    @pytest.mark.parametrize("upload", sorted(DERIVED))
    def test_derived_per_node_tensor_caught(self, registered_trainer, upload):
        build, names = DERIVED[upload]
        client = registered_trainer.clients[0]
        means = honest_means(registered_trainer)
        means[0] = build(client.graph, client.eval_forward()[1])
        with pytest.raises(PrivacyEscapeError, match=names):
            registered_trainer.comm.send_to_server(0, {"means": means, "n": 3.0}, kind="means")

    @pytest.mark.parametrize("upload", sorted(SCHEMA_BREAKS))
    def test_schema_break_caught(self, registered_trainer, upload):
        kind, build, names = SCHEMA_BREAKS[upload]
        payload = build(honest_means(registered_trainer))
        with pytest.raises(PrivacyEscapeError, match=names):
            registered_trainer.comm.send_to_server(0, payload, kind=kind)

    def test_gather_element_breaking_its_schema_caught(self, registered_trainer):
        trainer = registered_trainer
        uploads = [{"means": honest_means(trainer, c.cid), "n": 3.0} for c in trainer.clients]
        uploads[1]["means"] = uploads[1]["means"][:1]
        with pytest.raises(PrivacyEscapeError, match=r"client 1\).*1 entries, declared 2"):
            trainer.comm.gather(uploads, kind="means")

    def test_gather_of_raw_rows_caught(self, registered_trainer):
        rows = [c.graph.x.toarray() for c in registered_trainer.clients]
        with pytest.raises(PrivacyEscapeError, match=r"graph\.x`"):
            registered_trainer.comm.gather(rows)

    def test_statistics_pass(self, registered_trainer):
        trainer = registered_trainer
        comm = trainer.comm
        g = trainer.clients[0].graph
        comm.send_to_server(0, {"means": honest_means(trainer), "n": 3.0}, kind="means")
        # Metadata under a kind declared for it.
        trainer.sanitizer.protocol.declare_uplinks(0, {"shape": [(), ()]})
        comm.send_to_server(0, g.x.shape, kind="shape")
        # A float table row picked by a label: the label does not leave.
        table = np.random.default_rng(0).normal(size=(g.num_classes, 16))
        comm.send_to_server(0, {"means": [table[g.y[0]], table[g.y[1]]], "n": 3.0}, kind="means")
        comm.gather(
            [{"means": honest_means(trainer, c.cid), "n": 3.0} for c in trainer.clients],
            kind="means",
        )

    def test_hidden_activation_upload_caught_in_a_run(self, monkeypatch):
        # The per-node hidden activations added to the means upload
        # (`"h": list(hidden)`) raise in a sanitized FedOMD run.
        cfg = FedOMDConfig(max_rounds=1, patience=50, hidden=16, sanitize=True)
        trainer = FedOMDTrainer(small_parts(), cfg, seed=0)
        send = trainer.comm.send_to_server

        def leaky(cid, payload, kind="other"):
            if kind == "means":
                payload = {**payload, "h": list(trainer.clients[cid].eval_forward()[1])}
            return send(cid, payload, kind=kind)

        monkeypatch.setattr(trainer.comm, "send_to_server", leaky)
        with pytest.raises(PrivacyEscapeError, match=r"client0\.hidden\[0\]`"):
            trainer.run()


class TestUplinkDtypes:
    """A float32 run uploads float32 weights and float64 statistics, nothing else."""

    @pytest.fixture(scope="class")
    def trainer(self):
        cfg = FedOMDConfig(max_rounds=1, patience=50, hidden=16, sanitize=True)
        trainer = FedOMDTrainer(small_parts(), cfg, seed=0)
        trainer.begin_round(0)
        trainer.comm.end_round()
        return trainer

    def test_float32_weights_and_float64_statistics_pass(self, trainer):
        comm = trainer.comm
        comm.send_to_server(0, {"means": honest_means(trainer), "n": 3.0}, kind="means")
        comm.send_to_server(0, trainer.clients[0].get_state(), kind="weights")
        comm.end_round()

    def test_float64_weights_refused(self, trainer):
        state = {k: v.astype(np.float64) for k, v in trainer.clients[0].get_state().items()}
        with pytest.raises(PrivacyEscapeError, match="dtype float64.*declared arrays are float32"):
            trainer.comm.send_to_server(0, state, kind="weights")

    def test_float32_statistics_refused(self, trainer):
        means = [m.astype(np.float32) for m in honest_means(trainer)]
        with pytest.raises(PrivacyEscapeError, match="dtype float32.*declared arrays are float64"):
            trainer.comm.send_to_server(0, {"means": means, "n": 3.0}, kind="means")


class TestSecureExchangeSanitized:
    def test_secure_moment_exchange_passes_the_monitor(self):
        # The masked-statistics path of extensions/secure_agg.py sends its
        # own kind-tagged means/moments traffic; a sanitized run through it
        # must keep Algorithm 1's order and upload no raw party buffer.
        from repro.extensions import SecureMomentExchange

        cfg = FedOMDConfig(max_rounds=2, patience=50, hidden=16, sanitize=True)
        trainer = FedOMDTrainer(small_parts(), cfg, seed=0)
        trainer.exchange = SecureMomentExchange(trainer.comm, orders=cfg.orders)
        monitor = trainer.comm._monitor
        seen = []
        on_event = monitor.on_event

        def spy(direction, kind, payload, client=None):
            seen.append((direction, kind))
            on_event(direction, kind, payload, client)

        monitor.on_event = spy
        history = trainer.run()
        assert len(history) == 2
        assert {("up", "means"), ("up", "moments")} <= set(seen)


# ----------------------------------------------------------------------
# lock-order recorder
# ----------------------------------------------------------------------
class TestLockOrderRecorder:
    def _pair(self):
        from repro.analysis.sanitize import LockOrderRecorder

        rec = LockOrderRecorder()
        a = OwnedLock(name="a", recorder=rec)
        b = OwnedLock(name="b", recorder=rec)
        return rec, a, b

    def test_consistent_nesting_accepted(self):
        _, a, b = self._pair()
        for _ in range(2):
            with a:
                with b:
                    pass

    def test_opposite_nesting_raises(self):
        from repro.analysis.sanitize import LockOrderError

        _, a, b = self._pair()
        with a:
            with b:
                pass
        with b:
            with pytest.raises(LockOrderError, match="cycle"):
                a.acquire()

    def test_failed_acquisition_releases_the_lock(self):
        from repro.analysis.sanitize import LockOrderError

        _, a, b = self._pair()
        with a:
            with b:
                pass
        with b:
            with pytest.raises(LockOrderError):
                a.acquire()
        # The poisoned acquire must not leave `a` held.
        assert a.acquire(blocking=False)
        a.release()

    def test_reacquire_same_lock_order_after_release(self):
        _, a, b = self._pair()
        with a:
            with b:
                pass
        with a:
            pass
        with a:
            with b:
                pass

    def test_session_wires_recorder_into_probes(self):
        s = SanitizerSession(concurrency=True)
        comm = Communicator(num_clients=2)
        s.attach_communicator(comm)
        assert comm._monitor is s.protocol
        assert comm._lock._recorder is s.lock_order


class TestParallelChaosLockOrder:
    def test_sanitized_parallel_chaos_smoke_completes(self, tmp_path, monkeypatch):
        # The lock probes and the recorder arm only with num_workers > 1;
        # the CI fault mix drives drops, stragglers, corruption and crashes
        # through them on two executor threads.
        from repro.analysis.sanitize import LockOrderRecorder
        from repro.experiments import chaos

        acquired = []
        original = LockOrderRecorder.acquired

        def spy(self, name):
            acquired.append(name)
            original(self, name)

        monkeypatch.setattr(LockOrderRecorder, "acquired", spy)
        result = chaos.run(
            mode="smoke",
            out_dir=str(tmp_path),
            faults="drop=0.2,straggler=0.3:delay=0.01,corrupt=0.3,crash=0.2",
            engine="barrier",
            sanitize=True,
            num_workers=2,
        )
        assert int(result.meta["rounds"]) >= 1
        assert "Communicator._lock" in acquired

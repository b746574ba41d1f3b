"""Tests for the metered communicator and server aggregation."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.federated import CommStats, Communicator, fedavg, payload_bytes, uniform_fedavg
from repro.federated.server import (
    PartialState,
    _weighted_sum,
    take_rows,
    weighted_mean_statistics,
)
from repro.graphs.csr import CSRMatrix


class TestPayloadBytes:
    def test_ndarray(self):
        assert payload_bytes(np.zeros((3, 4))) == 3 * 4 * 8

    def test_float32_counts_smaller(self):
        assert payload_bytes(np.zeros(4, dtype=np.float32)) == 16

    def test_scalar(self):
        assert payload_bytes(3.5) == 8
        assert payload_bytes(7) == 8

    def test_numpy_scalars(self):
        assert payload_bytes(np.float64(3.5)) == 8
        assert payload_bytes(np.int32(7)) == 8

    def test_bool_scalars(self):
        # np.bool_ is not a bool/int subclass; it used to raise TypeError.
        assert payload_bytes(True) == 8
        assert payload_bytes(np.bool_(True)) == 8

    def test_complex_scalars(self):
        # complex is not a float subclass; it used to raise TypeError.
        assert payload_bytes(1 + 2j) == 16
        assert payload_bytes(np.complex128(1j)) == 16

    def test_none_is_free(self):
        assert payload_bytes(None) == 0

    def test_nested_dict_list(self):
        p = {"a": np.zeros(2), "b": [np.zeros(3), 1.0]}
        assert payload_bytes(p) == 16 + 24 + 8

    def test_string(self):
        assert payload_bytes("abc") == 3

    def test_unsupported_type(self):
        with pytest.raises(TypeError):
            payload_bytes(object())


class TestPayloadBytesSparse:
    """Sparse payloads used to fall through to the TypeError branch."""

    @staticmethod
    def _matrix():
        return sp.random(10, 10, density=0.3, random_state=0, format="csr")

    def test_csr_counts_index_structure(self):
        m = self._matrix()
        expected = m.data.nbytes + m.indices.nbytes + m.indptr.nbytes
        assert payload_bytes(m) == expected

    def test_csc(self):
        m = self._matrix().tocsc()
        expected = m.data.nbytes + m.indices.nbytes + m.indptr.nbytes
        assert payload_bytes(m) == expected

    def test_coo(self):
        m = self._matrix().tocoo()
        expected = m.data.nbytes + m.row.nbytes + m.col.nbytes
        assert payload_bytes(m) == expected

    def test_dia(self):
        m = sp.diags([1.0, 2.0, 3.0], offsets=0, format="dia")
        assert payload_bytes(m) == m.data.nbytes + m.offsets.nbytes

    def test_lil_billed_as_coo(self):
        m = self._matrix().tolil()
        assert payload_bytes(m) == payload_bytes(m.tocoo())

    def test_csr_container_bills_forward_arrays_only(self):
        m = self._matrix()
        c = CSRMatrix.from_scipy(m)  # reverse-CSR built eagerly...
        # ...but derivable on the receiving side, so it never moves.
        assert payload_bytes(c) == payload_bytes(m)

    def test_nested_sparse_payload(self):
        m = self._matrix()
        p = {"adj": m, "ids": np.arange(4)}
        assert payload_bytes(p) == payload_bytes(m) + 32

    def test_metered_through_communicator_by_kind(self):
        comm = Communicator(num_clients=2)
        m = self._matrix()
        comm.send_to_server(0, m, kind="subgraph")
        cell = comm.stats.kind("subgraph")
        assert cell["uplink_bytes"] == payload_bytes(m)
        assert cell["uplink_messages"] == 1
        assert comm.stats.uplink_bytes == payload_bytes(m)


class TestCommunicator:
    def test_requires_clients(self):
        with pytest.raises(ValueError):
            Communicator(num_clients=0)

    def test_broadcast_counts_per_client(self):
        comm = Communicator(num_clients=3)
        out = comm.broadcast(np.zeros(10))
        assert len(out) == 3
        assert comm.stats.downlink_bytes == 3 * 80
        assert comm.stats.downlink_messages == 3

    def test_broadcast_delivers_read_only_views(self):
        comm = Communicator(num_clients=2)
        src = {"w": np.zeros(2)}
        a, b = comm.broadcast(src)
        assert a is not b and a is not src
        for got in (a, b):
            assert np.shares_memory(got["w"], src["w"])  # no copy was made
            with pytest.raises(ValueError, match="read-only"):
                got["w"][0] = 5.0
        src["w"][0] = 1.0  # the sender's own array stays writable

    def test_gather_counts_uplink(self):
        comm = Communicator(num_clients=2)
        comm.gather([np.zeros(5), np.zeros(3)])
        assert comm.stats.uplink_bytes == 40 + 24
        assert comm.stats.uplink_messages == 2

    def test_gather_wrong_count(self):
        comm = Communicator(num_clients=2)
        with pytest.raises(ValueError):
            comm.gather([np.zeros(1)])

    def test_gather_delivers_read_only_views(self):
        comm = Communicator(num_clients=1)
        src = np.zeros(3)
        (out,) = comm.gather([src])
        assert np.shares_memory(out, src)
        with pytest.raises(ValueError, match="read-only"):
            out[0] = 7.0

    def test_point_to_point_delivers_read_only_views(self):
        comm = Communicator(num_clients=1)
        up = {"stats": [np.ones(2), (np.ones(1), 3)], "n": 4, "tag": "x"}
        got = comm.send_to_server(0, up)
        assert got["n"] == 4 and got["tag"] == "x" and got["stats"][1][1] == 3
        assert isinstance(got["stats"][1], tuple)
        for arr, src in ((got["stats"][0], up["stats"][0]), (got["stats"][1][0], up["stats"][1][0])):
            assert np.shares_memory(arr, src) and not arr.flags.writeable
        down = np.arange(3.0)
        assert np.shares_memory(comm.send_to_client(0, down), down)

    def test_sparse_leaves_are_still_copied(self):
        comm = Communicator(num_clients=1)
        m = sp.random(4, 4, density=0.5, format="csr", random_state=0)
        (out,) = comm.broadcast(m)
        assert not np.shares_memory(out.data, m.data)
        out.data[:] = 0.0  # the receiver's own copy
        assert m.data.any()

    def test_point_to_point(self):
        comm = Communicator(num_clients=2)
        comm.send_to_client(1, np.zeros(4))
        comm.send_to_server(0, np.zeros(2))
        assert comm.stats.downlink_bytes == 32
        assert comm.stats.uplink_bytes == 16

    def test_bad_client_id(self):
        comm = Communicator(num_clients=2)
        with pytest.raises(ValueError):
            comm.send_to_client(2, 1.0)
        with pytest.raises(ValueError):
            comm.send_to_server(-1, 1.0)

    def test_round_counter(self):
        comm = Communicator(num_clients=1)
        comm.end_round()
        comm.end_round()
        assert comm.stats.rounds == 2

    def test_stats_as_dict(self):
        d = CommStats(uplink_bytes=5, downlink_bytes=7).as_dict()
        assert d["total_bytes"] == 12


class TestSenderMutationTripwire:
    """The sanitizer's check that a sender leaves what it sent alone."""

    def armed(self, num_clients=2):
        from repro.analysis.sanitize import SanitizerSession

        comm = Communicator(num_clients=num_clients)
        SanitizerSession().attach_communicator(comm)
        return comm

    def test_upload_changed_before_next_downlink_raises(self):
        from repro.analysis.sanitize import SenderMutationError

        comm = self.armed()
        live = {"conv.weight": np.zeros(3)}
        comm.send_to_server(1, live, kind="weights")
        live["conv.weight"][0] = 1.0  # the client trains on before the server answers
        with pytest.raises(SenderMutationError, match=r"`weights` upload from client 1: `conv.weight`"):
            comm.broadcast({"w": np.zeros(1)}, kind="weights")

    def test_download_changed_before_next_uplink_raises(self):
        from repro.analysis.sanitize import SenderMutationError

        comm = self.armed()
        means = [np.zeros(2), np.zeros(2)]
        comm.send_to_client(0, means, kind="means")
        means[1] += 1.0
        with pytest.raises(SenderMutationError, match=r"download to client 0: `\[1\]`"):
            comm.send_to_server(0, {"moments": [np.ones(2)], "n": 3}, kind="moments")

    def test_write_after_the_answer_is_legal(self):
        comm = self.armed()
        live = {"w": np.zeros(3)}
        comm.send_to_server(0, live, kind="weights")
        comm.broadcast({"w": np.ones(3)}, kind="weights")  # answers the upload
        live["w"][...] = 1.0  # set_state overwriting the uploaded parameters
        comm.send_to_server(0, {"w": np.zeros(3)}, kind="weights")
        comm.end_round()

    def test_outstanding_sends_are_checked_at_end_round(self):
        from repro.analysis.sanitize import SenderMutationError

        comm = self.armed()
        stats = np.zeros(2)
        comm.gather([stats, np.zeros(2)])
        stats[0] = 1.0
        with pytest.raises(SenderMutationError, match="every client"):
            comm.end_round()

    @pytest.mark.parametrize("engine", ["barrier", "async"])
    def test_sanitized_fedomd_runs_do_not_raise(self, engine):
        from repro.core import FedOMDConfig, FedOMDTrainer
        from repro.graphs import load_dataset, louvain_partition

        g = load_dataset("cora", seed=0, scale=0.12)
        parts = louvain_partition(g, 3, np.random.default_rng(0)).parts
        cfg = FedOMDConfig(
            max_rounds=3, patience=50, hidden=8, sanitize=True, engine=engine, quorum=0.67
        )
        history = FedOMDTrainer(parts, cfg, seed=0).run()
        assert len(history.records) == 3


class TestFedAvg:
    def test_uniform_mean(self):
        s1 = {"w": np.array([1.0, 2.0])}
        s2 = {"w": np.array([3.0, 4.0])}
        out = uniform_fedavg([s1, s2])
        np.testing.assert_array_equal(out["w"], [2.0, 3.0])

    def test_weighted(self):
        s1 = {"w": np.array([0.0])}
        s2 = {"w": np.array([10.0])}
        out = fedavg([s1, s2], weights=[1, 4])
        np.testing.assert_allclose(out["w"], [8.0])

    def test_weights_normalized(self):
        s = [{"w": np.array([2.0])}, {"w": np.array([4.0])}]
        a = fedavg(s, weights=[1, 1])
        b = fedavg(s, weights=[100, 100])
        np.testing.assert_array_equal(a["w"], b["w"])

    def test_single_state_identity(self):
        s = {"w": np.array([1.0, 2.0]), "b": np.array([3.0])}
        out = fedavg([s])
        for k in s:
            np.testing.assert_array_equal(out[k], s[k])

    def test_result_independent_of_inputs(self):
        s1 = {"w": np.array([1.0])}
        out = fedavg([s1, {"w": np.array([3.0])}])
        out["w"][0] = 99.0
        assert s1["w"][0] == 1.0

    def test_key_mismatch(self):
        with pytest.raises(KeyError):
            fedavg([{"a": np.zeros(1)}, {"b": np.zeros(1)}])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            fedavg([{"a": np.zeros(1)}, {"a": np.zeros(2)}])

    def test_empty(self):
        with pytest.raises(ValueError):
            fedavg([])

    def test_bad_weights(self):
        s = [{"w": np.zeros(1)}, {"w": np.zeros(1)}]
        with pytest.raises(ValueError):
            fedavg(s, weights=[1])
        with pytest.raises(ValueError):
            fedavg(s, weights=[-1, 2])
        with pytest.raises(ValueError):
            fedavg(s, weights=[0, 0])

    def test_idempotent_on_equal_states(self):
        s = {"w": np.array([[1.0, 2.0], [3.0, 4.0]])}
        out = fedavg([s, s, s], weights=[1, 2, 3])
        np.testing.assert_array_equal(out["w"], s["w"])

    @staticmethod
    def _states(m=5, seed=0):
        rng = np.random.default_rng(seed)
        return [
            {"w": rng.standard_normal((300, 64)), "b": rng.standard_normal(64)} for _ in range(m)
        ]

    def test_bitwise_equal_to_textbook_sum(self):
        states = self._states()
        weights = [3, 1, 4, 1, 5]
        lam = np.asarray(weights, dtype=np.float64) / sum(weights)
        out = fedavg(states, weights)
        for k in states[0]:
            ref = np.zeros_like(states[0][k])
            for lam_i, s in zip(lam, states):
                ref += lam_i * s[k]
            assert np.array_equal(out[k], ref)

    def test_allocates_output_plus_one_scratch_per_key(self):
        import tracemalloc

        states = self._states()
        per_state = sum(v.nbytes for v in states[0].values())
        fedavg(states, [1, 2, 3, 4, 5])  # warm any lazy numpy state
        tracemalloc.start()
        try:
            fedavg(states, [1, 2, 3, 4, 5])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The output and one product buffer per key; no per-client copy.
        assert peak <= 2 * per_state + 4096


class TestFoldsKeepTheStateDtype:
    """Float32 uploads fold to float32: the float64 λ does not promote them."""

    @staticmethod
    def _states(m=3, seed=0):
        rng = np.random.default_rng(seed)
        return [
            {"w": rng.standard_normal((6, 4)).astype(np.float32),
             "b": rng.standard_normal(4).astype(np.float32)}
            for _ in range(m)
        ]

    def test_plain_fedavg(self):
        for weights in (None, np.array([3.0, 1.0, 4.0]), [3, 1, 4]):
            out = fedavg(self._states(), weights)
            assert {v.dtype for v in out.values()} == {np.dtype(np.float32)}

    def test_weighted_sum(self):
        arrays = [s["w"] for s in self._states()]
        lam = np.array([0.5, 0.25, 0.25])  # float64
        out = _weighted_sum(arrays, lam, "w")
        assert out.dtype == np.float32
        ref = np.zeros_like(arrays[0])
        for lam_i, a in zip(lam.astype(np.float32), arrays):
            ref += a * lam_i
        np.testing.assert_array_equal(out, ref)

    def test_partial_row_fold(self):
        base = self._states(1, seed=1)[0]
        rows = [np.array([0, 2, 3]), np.array([1, 2, 5])]
        states = [
            PartialState({"w": s["w"][r], "b": s["b"]}, {"w": r}, base)
            for s, r in zip(self._states(2), rows)
        ]
        out = fedavg(states, np.array([2.0, 1.0]))
        assert out["w"].dtype == out["b"].dtype == np.float32
        np.testing.assert_array_equal(out["w"][4], base["w"][4])  # held by no party

    def test_trainer_global_state_stays_float32(self):
        from repro.core import FedOMDConfig, FedOMDTrainer
        from repro.graphs import load_dataset, louvain_partition

        g = load_dataset("cora", seed=0, scale=0.12)
        parts = louvain_partition(g, 3, np.random.default_rng(0)).parts
        trainer = FedOMDTrainer(parts, FedOMDConfig(max_rounds=2, hidden=16), seed=0)
        trainer.run()
        assert {v.dtype for v in trainer.global_state.values()} == {np.dtype(np.float32)}
        # W₀ and two rounds' downloads, each a float32 copy of the party's rows.
        per_round = sum(
            v.nbytes for c in trainer.clients for v in take_rows(trainer.global_state, c.rows).values()
        )
        assert trainer.comm.stats.kind("weights")["downlink_bytes"] == 3 * per_round


class TestWeightedMeanStatistics:
    def test_algorithm1_line25(self):
        # M = Σ n_i M_i / Σ n_i with unequal party sizes.
        m1, m2 = np.array([1.0, 1.0]), np.array([4.0, 4.0])
        out = weighted_mean_statistics([m1, m2], [3, 1])
        np.testing.assert_allclose(out, [1.75, 1.75])

    def test_single_party(self):
        out = weighted_mean_statistics([np.array([2.0])], [5])
        np.testing.assert_array_equal(out, [2.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            weighted_mean_statistics([], [])
        with pytest.raises(ValueError):
            weighted_mean_statistics([np.zeros(1)], [1, 2])
        with pytest.raises(ValueError):
            weighted_mean_statistics([np.zeros(1), np.zeros(2)], [1, 1])
        with pytest.raises(ValueError):
            weighted_mean_statistics([np.zeros(1)], [0])

"""Tests for the parallel client execution engine.

Covers the :class:`ClientExecutor` contract (ordering, serial fallback,
error propagation), the :class:`Communicator` thread-safety contract,
and the headline guarantee: ``num_workers`` is a pure speed knob —
parallel and serial runs produce identical training histories.
"""

import threading
import time

import numpy as np
import pytest

from repro.core import FedOMDConfig, FedOMDTrainer
from repro.federated import (
    ClientExecutor,
    Communicator,
    FederatedTrainer,
    TrainerConfig,
    resolve_workers,
)
from repro.graphs import load_dataset, louvain_partition


@pytest.fixture(scope="module")
def parts():
    g = load_dataset("cora", seed=0, scale=0.25)
    return louvain_partition(g, 4, np.random.default_rng(0)).parts


class TestClientExecutor:
    def test_serial_preserves_order(self):
        ex = ClientExecutor(num_workers=1)
        assert not ex.parallel
        assert ex.map(lambda x: x * 2, [1, 2, 3]) == [2, 4, 6]

    def test_parallel_preserves_order(self):
        ex = ClientExecutor(num_workers=4)
        assert ex.parallel
        items = list(range(32))

        def slow_identity(x):
            # Later items finish first; the result list must still be ordered.
            time.sleep(0.001 * (32 - x) / 32)
            return x

        assert ex.map(slow_identity, items) == items
        ex.shutdown()

    def test_parallel_actually_uses_threads(self):
        ex = ClientExecutor(num_workers=4)
        seen = set()

        def record(_):
            seen.add(threading.get_ident())
            time.sleep(0.01)

        ex.map(record, range(8))
        ex.shutdown()
        assert len(seen) > 1

    def test_exceptions_propagate(self):
        ex = ClientExecutor(num_workers=2)

        def boom(x):
            raise RuntimeError(f"client {x} failed")

        with pytest.raises(RuntimeError, match="client"):
            ex.map(boom, [0, 1])
        ex.shutdown()

    def test_shutdown_idempotent_and_reusable(self):
        ex = ClientExecutor(num_workers=2)
        assert ex.map(lambda x: x, [1, 2]) == [1, 2]
        ex.shutdown()
        ex.shutdown()
        # The pool respawns lazily after shutdown.
        assert ex.map(lambda x: x + 1, [1, 2]) == [2, 3]
        ex.shutdown()

    def test_single_item_stays_serial(self):
        ex = ClientExecutor(num_workers=4)
        assert ex.map(lambda x: threading.get_ident(), [0]) == [threading.get_ident()]
        assert ex._pool is None  # no pool spawned for one item
        ex.shutdown()

    def test_resolve_workers(self):
        assert resolve_workers(1) == 1
        assert resolve_workers(7) == 7
        assert resolve_workers(0) >= 1  # auto = cpu count
        with pytest.raises(ValueError):
            resolve_workers(-1)

    def test_auto_workers_honour_the_affinity_mask(self, monkeypatch):
        import os

        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert resolve_workers(0) == 1

    def test_config_rejects_negative_workers(self):
        with pytest.raises(ValueError):
            TrainerConfig(num_workers=-2)


class TestCommunicatorThreadSafety:
    def test_concurrent_sends_count_exactly(self):
        comm = Communicator(num_clients=8)
        payload = np.zeros(16)  # 128 bytes
        sends_per_client = 50

        def client_traffic(cid):
            for _ in range(sends_per_client):
                comm.send_to_server(cid, payload)
                comm.send_to_client(cid, payload)

        threads = [threading.Thread(target=client_traffic, args=(cid,)) for cid in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        total_msgs = 8 * sends_per_client
        assert comm.stats.uplink_messages == total_msgs
        assert comm.stats.downlink_messages == total_msgs
        assert comm.stats.uplink_bytes == total_msgs * payload.nbytes
        assert comm.stats.downlink_bytes == total_msgs * payload.nbytes

    def test_snapshot_and_delta(self):
        comm = Communicator(num_clients=2)
        comm.send_to_server(0, np.zeros(4))
        before = comm.snapshot()
        comm.send_to_server(1, np.zeros(4))
        comm.send_to_client(0, np.zeros(2))
        delta = comm.snapshot() - before
        assert delta.uplink_bytes == 32
        assert delta.downlink_bytes == 16
        assert delta.uplink_messages == 1
        # The snapshot is a copy, not a view.
        assert before.uplink_messages == 1


class TestParallelDeterminism:
    """num_workers must not change a single recorded metric."""

    def test_fedavg_parallel_matches_serial(self, parts):
        histories = []
        for workers in (1, 4):
            cfg = TrainerConfig(max_rounds=4, patience=10, hidden=16, num_workers=workers)
            histories.append(FederatedTrainer(parts, cfg, seed=0).run())
        assert histories[0].metrics_equal(histories[1])

    def test_fedomd_parallel_matches_serial(self, parts):
        histories = []
        for workers in (1, 4):
            cfg = FedOMDConfig(max_rounds=3, patience=10, hidden=16, num_workers=workers)
            histories.append(FedOMDTrainer(parts, cfg, seed=0).run())
        assert histories[0].metrics_equal(histories[1])

    def test_parallel_models_bitwise_equal(self, parts):
        trainers = []
        for workers in (1, 4):
            cfg = TrainerConfig(max_rounds=3, patience=10, hidden=16, num_workers=workers)
            tr = FederatedTrainer(parts, cfg, seed=0)
            tr.run()
            trainers.append(tr)
        for c_serial, c_parallel in zip(trainers[0].clients, trainers[1].clients):
            for k, v in c_serial.get_state().items():
                np.testing.assert_array_equal(v, c_parallel.get_state()[k])


class TestRoundTimings:
    def test_timing_fields_recorded(self, parts):
        cfg = TrainerConfig(max_rounds=2, patience=10, hidden=16)
        hist = FederatedTrainer(parts, cfg, seed=0).run()
        for rec in hist.records:
            assert rec.wall_time > 0
            assert rec.train_time > 0
            assert rec.eval_time > 0
            phases = rec.exchange_time + rec.train_time + rec.agg_time + rec.eval_time
            assert phases == pytest.approx(rec.wall_time, rel=0.05)
        assert hist.total_wall_time() == pytest.approx(
            sum(hist.wall_times), rel=1e-12
        )

    def test_as_dict_includes_timings(self, parts):
        cfg = TrainerConfig(max_rounds=1, patience=10, hidden=8)
        hist = FederatedTrainer(parts, cfg, seed=0).run()
        d = hist.as_dict()
        for key in ("wall_time", "exchange_time", "train_time", "agg_time", "eval_time"):
            assert len(d[key]) == len(hist)

    def test_metrics_equal_ignores_timing(self, parts):
        cfg = TrainerConfig(max_rounds=2, patience=10, hidden=8)
        h1 = FederatedTrainer(parts, cfg, seed=1).run()
        h2 = FederatedTrainer(parts, cfg, seed=1).run()
        assert h1.metrics_equal(h2)
        # Wall clocks differ between runs, metrics don't.
        assert h1.records[0].metrics_dict() == h2.records[0].metrics_dict()

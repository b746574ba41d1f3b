"""Deferred optimizer steps and the BLAS cap (``repro.federated.executor``).

Inside ``FederatedTrainer.run()`` a serial executor may hand each
client's Adam step to a FIFO stream thread, so it overlaps the next
client's forward and backward.  A deferred run must be bitwise the
inline one: same history, same final weights, same Adam ``t``/``m``/``v``.
Each case runs twice, deferral forced on and forced off, and the on arm
asserts that steps really were deferred.

Deferral needs the OpenBLAS cap; where numpy has no scipy-openblas the
cap is stood in by a fake getter/setter pair, so the stream is tested on
every BLAS build.  The tests of the cap itself skip there.
"""

import gc
import sys
import threading

import numpy as np
import pytest

from repro.core import FedOMDConfig, FedOMDTrainer
from repro.federated import ClientExecutor, FederatedTrainer, TrainerConfig
from repro.federated import executor as executor_mod
from repro.federated.checkpoint import checkpoint_path
from repro.federated.executor import openblas_threads_api, step_stream
from repro.federated.faults import FaultPlan
from repro.graphs import load_dataset, louvain_partition

ROUNDS = 4


@pytest.fixture(scope="module")
def parts():
    g = load_dataset("cora", seed=0, scale=0.25)
    return louvain_partition(g, 3, np.random.default_rng(0)).parts


def force_deferral(m, on: bool) -> list:
    """Make deferral's conditions hold (``on``) or fail; return the submit log."""
    m.setattr(executor_mod, "available_cpus", lambda: 2 if on else 1)
    if openblas_threads_api() is None:
        count = [4]
        m.setattr(
            executor_mod,
            "openblas_threads_api",
            lambda: (lambda: count[0], lambda n: count.__setitem__(0, n)),
        )
    submitted = []
    real_submit = executor_mod.StepStream.submit

    def submit(stream, owner, step):
        submitted.append(owner.cid)
        real_submit(stream, owner, step)

    m.setattr(executor_mod.StepStream, "submit", submit)
    return submitted


def run_both(monkeypatch, make_trainer, run=lambda t: t.run()):
    """(deferred, inline) trainers after ``run``; checks deferral happened."""
    out = []
    for on in (True, False):
        with monkeypatch.context() as m:
            submitted = force_deferral(m, on)
            trainer = make_trainer()
            run(trainer)
        assert bool(submitted) == on
        out.append(trainer)
    return out


def assert_bitwise_equal(a, b):
    assert len(a.history.records) == len(b.history.records)
    for ra, rb in zip(a.history.records, b.history.records):
        da, db = ra.metrics_dict(), rb.metrics_dict()
        assert da.keys() == db.keys()
        for key in da:
            np.testing.assert_array_equal(da[key], db[key], err_msg=key)
    for ca, cb in zip(a.clients, b.clients):
        sa, sb = ca.get_state(), cb.get_state()
        for k in sa:
            np.testing.assert_array_equal(sa[k], sb[k], err_msg=f"client {ca.cid}/{k}")
        oa, ob = ca.optimizer, cb.optimizer
        assert oa.t == ob.t
        for x, y in zip(oa._m + oa._v, ob._m + ob._v):
            np.testing.assert_array_equal(x, y)


def config(**overrides):
    return TrainerConfig(**dict(dict(max_rounds=ROUNDS, patience=50, hidden=8), **overrides))


class TestDeferredStepBitwise:
    def test_fedomd_two_local_epochs(self, parts, monkeypatch):
        cfg = FedOMDConfig(max_rounds=ROUNDS, patience=50, hidden=8, local_epochs=2)
        a, b = run_both(monkeypatch, lambda: FedOMDTrainer(parts, cfg, seed=0))
        assert a.clients[0].optimizer.t == 2 * ROUNDS
        assert_bitwise_equal(a, b)

    def test_client_without_labelled_nodes(self, parts, monkeypatch):
        unlabelled = parts[1].copy()
        unlabelled.train_mask[:] = False
        mixed = [parts[0], unlabelled, parts[2]]
        a, b = run_both(monkeypatch, lambda: FederatedTrainer(mixed, config(), seed=0))
        assert a.clients[1].optimizer.t == 0
        assert_bitwise_equal(a, b)

    def test_nan_skipped_step(self, parts, monkeypatch):
        class NanOnce(FederatedTrainer):
            def local_loss(self, client):
                loss = client.ce_loss()
                if client.cid == 1 and len(self.history.records) == 1:
                    return loss * float("nan")
                return loss

        a, b = run_both(monkeypatch, lambda: NanOnce(parts, config(), seed=0))
        assert a.clients[1].optimizer.t == ROUNDS - 1
        assert_bitwise_equal(a, b)

    def test_drop_and_corrupt_faults(self, parts, monkeypatch):
        def make():
            plan = FaultPlan.from_spec("drop=0.3,corrupt=0.3", seed=3)
            return FederatedTrainer(parts, config(max_rounds=6), seed=0, faults=plan)

        a, b = run_both(monkeypatch, make)
        assert_bitwise_equal(a, b)

    def test_checkpoint_resume(self, parts, monkeypatch, tmp_path):
        class Killed(RuntimeError):
            pass

        def interrupted_then_resumed(trainer):
            original = trainer.begin_round

            def dying(r):
                if r >= 2:
                    raise Killed
                return original(r)

            trainer.begin_round = dying
            with pytest.raises(Killed):
                trainer.run()

        ckpt = config(checkpoint_every=2, checkpoint_dir=str(tmp_path))
        with monkeypatch.context() as m:
            submitted = force_deferral(m, True)
            interrupted_then_resumed(FederatedTrainer(parts, ckpt, seed=0))
            resumed = FederatedTrainer(parts, ckpt, seed=0)
            resumed.resume(checkpoint_path(str(tmp_path)))
            resumed.run()
        assert submitted
        with monkeypatch.context() as m:
            force_deferral(m, False)
            uninterrupted = FederatedTrainer(parts, config(), seed=0)
            uninterrupted.run()
        assert_bitwise_equal(resumed, uninterrupted)


def stream_threads():
    return [t for t in threading.enumerate() if t.name.startswith("fl-step")]


class TestStepStream:
    def test_step_error_surfaces_from_map_with_nothing_pending(self, monkeypatch):
        force_deferral(monkeypatch, True)
        ex = ClientExecutor(1)
        ran = []

        class Owner:
            def __init__(self, cid):
                self.cid = cid

        def task(owner):
            def step():
                if owner.cid == 1:
                    raise ZeroDivisionError("step of client 1")
                ran.append(owner.cid)

            step_stream().submit(owner, step)
            return owner.cid

        with ex.one_blas_thread():
            stream = ex._stream
            assert stream is not None
            with pytest.raises(ZeroDivisionError, match="client 1"):
                ex.map(task, [Owner(i) for i in range(3)])
            assert stream._pending == {}
            assert sorted(ran) == [0, 2]
            # The stream stays usable, and nothing leaks outside a map.
            assert ex.map(task, [Owner(0), Owner(2)]) == [0, 2]
            assert step_stream() is None
        assert stream_threads() == []

    def test_task_error_wins_and_pending_steps_land(self, monkeypatch):
        force_deferral(monkeypatch, True)
        ex = ClientExecutor(1)
        landed = []

        class Owner:
            cid = 0

        def task(owner):
            step_stream().submit(owner, lambda: landed.append(1))
            raise KeyError("task")

        with ex.one_blas_thread():
            with pytest.raises(KeyError):
                ex.map(task, [Owner()])
            assert landed == [1] and ex._stream._pending == {}

    def test_stress_steps_land_before_their_owner_reads(self, monkeypatch):
        """Many owners, several steps each, a tiny switch interval: every
        read of a parameter must see its owner's previous step."""
        from repro.nn import Adam
        from repro.nn.module import Parameter

        class Owner:
            def __init__(self, cid):
                self.cid = cid
                self.p = Parameter(np.random.default_rng(cid).standard_normal((512, 16)))
                self.opt = Adam([self.p], lr=0.05, weight_decay=1e-4)

        def epochs(owner, defer):
            for _ in range(4):
                if defer:
                    step_stream().join(owner)  # as Client.train_step does
                owner.p.grad = np.tanh(owner.p.data) * 2.0  # reads the weights
                if defer:
                    step_stream().submit(owner, owner.opt.step)
                else:
                    owner.opt.step()
            return owner.cid

        force_deferral(monkeypatch, True)
        inline = [Owner(i) for i in range(16)]
        for owner in inline:
            epochs(owner, defer=False)
        deferred = [Owner(i) for i in range(16)]
        ex = ClientExecutor(1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ex.one_blas_thread():
                assert ex.map(lambda o: epochs(o, defer=True), deferred) == list(range(16))
        finally:
            sys.setswitchinterval(interval)
        for a, b in zip(deferred, inline):
            np.testing.assert_array_equal(a.p.data, b.p.data)
            assert a.opt.t == b.opt.t == 4

    def test_error_in_a_client_step_leaves_no_thread(self, parts, monkeypatch):
        force_deferral(monkeypatch, True)
        trainer = FederatedTrainer(parts, config(), seed=0)

        def broken_step():
            raise FloatingPointError("adam blew up")

        trainer.clients[2].optimizer.step = broken_step
        with pytest.raises(FloatingPointError):
            trainer.run()
        assert stream_threads() == []

    def test_no_stream_thread_outlives_run(self, parts, monkeypatch):
        force_deferral(monkeypatch, True)
        seen = []

        class Watch(FederatedTrainer):
            def local_loss(self, client):
                seen.append((step_stream() is not None, len(stream_threads())))
                return client.ce_loss()

        Watch(parts, config(), seed=0).run()
        # The stream's one thread starts at the first submit.
        assert seen and all(active for active, _ in seen)
        assert max(n for _, n in seen) == 1
        assert stream_threads() == []

    def test_one_cpu_or_workers_keep_steps_inline(self, monkeypatch):
        force_deferral(monkeypatch, False)
        ex = ClientExecutor(1)
        with ex.one_blas_thread():
            assert ex._stream is None
        monkeypatch.setattr(executor_mod, "available_cpus", lambda: 2)
        ex = ClientExecutor(2)
        with ex.one_blas_thread():
            assert ex._stream is None
            assert ex.map(lambda _: step_stream(), [0, 1]) == [None, None]

    def test_no_deferral_without_the_blas_cap(self, monkeypatch):
        monkeypatch.setattr(executor_mod, "available_cpus", lambda: 2)
        monkeypatch.setattr(executor_mod, "openblas_threads_api", lambda: None)
        ex = ClientExecutor(1)
        with ex.one_blas_thread():
            assert ex._stream is None


needs_openblas = pytest.mark.skipif(
    openblas_threads_api() is None, reason="numpy has no bundled scipy-openblas"
)


@needs_openblas
class TestBlasCap:
    def run_watched(self, parts, fail=False):
        get, _ = openblas_threads_api()
        seen = []

        class Watch(FederatedTrainer):
            def begin_round(self, round_idx):
                seen.append(get())
                if fail:
                    raise RuntimeError("round failed")

        trainer = Watch(parts, config(max_rounds=2), seed=0)
        if fail:
            with pytest.raises(RuntimeError, match="round failed"):
                trainer.run()
        else:
            trainer.run()
        return seen

    @pytest.mark.parametrize("fail", [False, True], ids=["returns", "raises"])
    def test_one_thread_inside_run_previous_after(self, parts, fail):
        get, set_ = openblas_threads_api()
        original = get()
        set_(2)
        try:
            before = get()
            seen = self.run_watched(parts, fail=fail)
            assert seen and all(n == 1 for n in seen)
            assert get() == before
        finally:
            set_(original)

    def test_api_looked_up_once_per_process(self):
        first, second = openblas_threads_api(), openblas_threads_api()
        assert first is second
        assert first[0] is second[0] and first[1] is second[1]

    def test_second_run_leaves_no_unreachable_objects(self, parts):
        FederatedTrainer(parts, config(max_rounds=2), seed=0).run()
        trainer = FederatedTrainer(parts, config(max_rounds=2), seed=0)
        gc.collect()
        gc.disable()
        try:
            trainer.run()
            # Each uncached lookup left 15 ctypes objects in cycles.
            assert gc.collect() == 0
        finally:
            gc.enable()

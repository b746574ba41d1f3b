"""Inline optimizer steps and the BLAS cap (``repro.federated.executor``).

A serial run starts no thread: each client's Adam step runs inline, on
the thread that ran its backward pass, also inside the BLAS cap on two
or more CPUs, where a serial run once deferred its steps to a second
thread.  With client workers a step runs on a pool thread, beside other
clients' backward passes, and must be bitwise the serial step: same
history, same final weights, same Adam ``t``/``m``/``v``.  Each case
runs both.

Where numpy has no scipy-openblas the cap is stood in by a fake
getter/setter pair, so the capped path is tested on every BLAS build.
The tests of the cap itself skip there.
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
from repro.federated.executor import openblas_threads_api
from repro.federated.faults import FaultPlan
from repro.graphs import load_dataset, louvain_partition
from repro.nn import Adam
from repro.nn.module import Parameter

ROUNDS = 4


@pytest.fixture(scope="module")
def parts():
    g = load_dataset("cora", seed=0, scale=0.25)
    return louvain_partition(g, 3, np.random.default_rng(0)).parts


def force_cap(m, cpus: int = 2) -> None:
    """Run on ``cpus`` CPUs with the BLAS cap in force, faked where numpy has no
    scipy-openblas."""
    m.setattr(executor_mod, "available_cpus", lambda: cpus)
    if openblas_threads_api() is None:
        count = [4]
        m.setattr(
            executor_mod,
            "openblas_threads_api",
            lambda: (lambda: count[0], lambda n: count.__setitem__(0, n)),
        )


def new_threads(before) -> list:
    """Threads alive now that were not in ``before``."""
    return [t for t in threading.enumerate() if t not in before]


def watch_steps(m) -> list:
    """Log each optimizer step: whether it ran on the main thread, and the
    threads alive then that a run started."""
    before, seen = set(threading.enumerate()), []
    real = Adam.step

    def step(opt):
        seen.append((threading.current_thread() is threading.main_thread(), new_threads(before)))
        real(opt)

    m.setattr(Adam, "step", step)
    return seen


def run_both(monkeypatch, make_trainer, run=lambda t: t.run()):
    """(serial, two-worker) trainers after ``run``; checks where steps ran."""
    out = []
    for workers in (1, 2):
        with monkeypatch.context() as m:
            force_cap(m)
            seen = watch_steps(m)
            trainer = make_trainer(workers)
            run(trainer)
        assert seen
        if workers == 1:
            assert seen == [(True, [])] * len(seen)  # inline, and no thread started
        else:
            assert not any(main for main, _ in seen)
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
    """Steps run off the main thread (by client workers) are bitwise the inline ones."""

    def test_fedomd_two_local_epochs(self, parts, monkeypatch):
        def make(workers):
            cfg = FedOMDConfig(max_rounds=ROUNDS, patience=50, hidden=8, local_epochs=2,
                               num_workers=workers)
            return FedOMDTrainer(parts, cfg, seed=0)

        a, b = run_both(monkeypatch, make)
        assert a.clients[0].optimizer.t == 2 * ROUNDS
        assert_bitwise_equal(a, b)

    def test_client_without_labelled_nodes(self, parts, monkeypatch):
        unlabelled = parts[1].copy()
        unlabelled.train_mask[:] = False
        mixed = [parts[0], unlabelled, parts[2]]
        a, b = run_both(monkeypatch, lambda w: FederatedTrainer(mixed, config(num_workers=w), seed=0))
        assert a.clients[1].optimizer.t == 0
        assert_bitwise_equal(a, b)

    def test_nan_skipped_step(self, parts, monkeypatch):
        class NanOnce(FederatedTrainer):
            def local_loss(self, client):
                loss = client.ce_loss()
                if client.cid == 1 and len(self.history.records) == 1:
                    return loss * float("nan")
                return loss

        a, b = run_both(monkeypatch, lambda w: NanOnce(parts, config(num_workers=w), seed=0))
        assert a.clients[1].optimizer.t == ROUNDS - 1
        assert_bitwise_equal(a, b)

    def test_drop_and_corrupt_faults(self, parts, monkeypatch):
        def make(workers):
            plan = FaultPlan.from_spec("drop=0.3,corrupt=0.3", seed=3)
            cfg = config(max_rounds=6, num_workers=workers)
            return FederatedTrainer(parts, cfg, seed=0, faults=plan)

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

        ckpt = config(checkpoint_every=2, checkpoint_dir=str(tmp_path), num_workers=2)
        with monkeypatch.context() as m:
            force_cap(m)
            seen = watch_steps(m)
            interrupted_then_resumed(FederatedTrainer(parts, ckpt, seed=0))
            resumed = FederatedTrainer(parts, ckpt, seed=0)
            resumed.resume(checkpoint_path(str(tmp_path)))
            resumed.run()
        assert seen and not any(main for main, _ in seen)
        with monkeypatch.context() as m:
            force_cap(m)
            uninterrupted = FederatedTrainer(parts, config(), seed=0)
            uninterrupted.run()
        assert_bitwise_equal(resumed, uninterrupted)


class Owner:
    """One party's parameter and optimizer, stepped by hand."""

    def __init__(self, cid):
        self.cid = cid
        self.p = Parameter(np.random.default_rng(cid).standard_normal((512, 16)))
        self.opt = Adam([self.p], lr=0.05, weight_decay=1e-4)

    def step(self):
        self.p.grad = np.tanh(self.p.data) * 2.0  # reads the weights
        self.opt.step()


class TestStepStream:
    """What deferred steps had to guarantee, with every step inline: a
    step's error surfaces from the map that ran it, a step has landed when
    its task returns or fails, and no run leaves a thread behind."""

    def test_step_error_surfaces_from_map_with_nothing_pending(self, monkeypatch):
        force_cap(monkeypatch)
        ex = ClientExecutor(1)
        before, ran = set(threading.enumerate()), []

        def task(owner):
            if owner.cid == 1:
                raise ZeroDivisionError("step of client 1")
            owner.step()
            ran.append(owner.cid)
            return owner.cid

        owners = [Owner(i) for i in range(3)]
        with ex.one_blas_thread():
            with pytest.raises(ZeroDivisionError, match="client 1"):
                ex.map(task, owners)
            assert ran == [0]  # the error stopped the map: client 2 never ran
            assert ex.map(task, [owners[0], owners[2]]) == [0, 2]
            assert new_threads(before) == []
        assert [o.opt.t for o in owners] == [2, 0, 1]

    def test_task_error_wins_and_pending_steps_land(self, monkeypatch):
        force_cap(monkeypatch)
        ex, owner = ClientExecutor(1), Owner(0)
        before = owner.p.data.copy()

        def task(owner):
            owner.step()
            raise KeyError("task")

        with ex.one_blas_thread():
            with pytest.raises(KeyError):
                ex.map(task, [owner])
        assert owner.opt.t == 1 and not np.array_equal(owner.p.data, before)

    def test_stress_steps_land_before_their_owner_reads(self, monkeypatch):
        """Many owners, several steps each, stepped by two workers with a tiny
        switch interval: every read of a parameter must see its owner's
        previous step, as the serial steps do."""

        def epochs(owner):
            for _ in range(4):
                owner.step()
            return owner.cid

        force_cap(monkeypatch)
        serial = [Owner(i) for i in range(16)]
        for owner in serial:
            epochs(owner)
        parallel = [Owner(i) for i in range(16)]
        ex = ClientExecutor(2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ex.one_blas_thread():
                assert ex.map(epochs, parallel) == list(range(16))
        finally:
            sys.setswitchinterval(interval)
            ex.shutdown()
        for a, b in zip(parallel, serial):
            np.testing.assert_array_equal(a.p.data, b.p.data)
            assert a.opt.t == b.opt.t == 4

    def test_error_in_a_client_step_leaves_no_thread(self, parts, monkeypatch):
        force_cap(monkeypatch)
        trainer = FederatedTrainer(parts, config(), seed=0)
        before = set(threading.enumerate())

        def broken_step():
            raise FloatingPointError("adam blew up")

        trainer.clients[2].optimizer.step = broken_step
        with pytest.raises(FloatingPointError):
            trainer.run()
        assert new_threads(before) == []

    def test_no_stream_thread_outlives_run(self, parts, monkeypatch):
        force_cap(monkeypatch)
        seen = watch_steps(monkeypatch)
        before = set(threading.enumerate())
        FederatedTrainer(parts, config(), seed=0).run()
        assert len(seen) == ROUNDS * len(parts)
        assert seen == [(True, [])] * len(seen)
        assert new_threads(before) == []

    def test_one_cpu_or_workers_keep_steps_inline(self, monkeypatch):
        # Serial: each task on the calling thread, on any CPU count.  With
        # workers: each task, its step included, on one pool thread.
        def where(owner):
            owner.step()
            return threading.current_thread().name

        for cpus in (1, 2):
            force_cap(monkeypatch, cpus)
            with ClientExecutor(1).one_blas_thread():
                names = ClientExecutor(1).map(where, [Owner(0), Owner(1)])
            assert names == [threading.current_thread().name] * 2
        ex = ClientExecutor(2)
        try:
            with ex.one_blas_thread():
                names = ex.map(where, [Owner(0), Owner(1)])
        finally:
            ex.shutdown()
        assert all(name.startswith("fl-client") for name in names)

    def test_no_deferral_without_the_blas_cap(self, monkeypatch):
        monkeypatch.setattr(executor_mod, "available_cpus", lambda: 2)
        monkeypatch.setattr(executor_mod, "openblas_threads_api", lambda: None)
        ex, before = ClientExecutor(1), set(threading.enumerate())
        with ex.one_blas_thread():
            assert ex.map(lambda o: o.step() or threading.current_thread().name,
                          [Owner(0)]) == [threading.current_thread().name]
        assert new_threads(before) == []


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

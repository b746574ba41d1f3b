"""The pool of leaf gradients (``repro.autograd.tensor.grad_pool``) in a run.

A leaf's first gradient ``Xᵀ·G`` is written into a pooled buffer, and
``Adam.step`` hands the buffer back once it has consumed it.  With client
workers one client's step runs on one thread while another client's
backward runs on the other, so a buffer must not be handed out again
before its step lands: reusing it under the step would train a different
history.  A serial run steps inline, so the pool lends few buffers.
Each test installs a fresh, watched pool.
"""

import inspect
import threading
import time
import tracemalloc

import numpy as np
import pytest

from repro.autograd import tensor as tensor_mod
from repro.core import FedOMDConfig, FedOMDTrainer
from repro.graphs import load_dataset, louvain_partition
from repro.nn import Adam

from tests.federated.test_deferred_step import assert_bitwise_equal

ROUNDS = 3


@pytest.fixture(scope="module")
def parts():
    g = load_dataset("cora", seed=0, scale=0.25)
    return louvain_partition(g, 4, np.random.default_rng(0)).parts


class WatchedPool(tensor_mod.GradPool):
    """A pool that records which of its buffers a pending step still holds."""

    def __init__(self):
        super().__init__()
        self.watch = threading.Lock()
        self.pending = []  # buffers of started steps that have not landed
        self.lent = self.most_lent = 0
        self.reused_while_pending = 0
        self.taken_while_steps_pending = 0

    def take(self, shape, dtype):
        view = super().take(shape, dtype)
        buf = view.base
        with self.watch:
            self.reused_while_pending += any(buf is b for b in self.pending)
            self.taken_while_steps_pending += bool(self.pending)
            self.lent += 1
            self.most_lent = max(self.most_lent, self.lent)
        return view

    def give(self, buf):
        with self.watch:
            self.pending = [b for b in self.pending if b is not buf]
            self.lent -= 1
        super().give(buf)


def watch_pool(m):
    pool = WatchedPool()
    m.setattr(tensor_mod, "grad_pool", pool)
    return pool


def hold_steps_back(m, pool, delay=0.004):
    """Every step waits ``delay`` s first, holding its gradients' buffers, so
    another client's backward runs while it is pending."""
    step = Adam.step

    def slow_step(opt):
        with pool.watch:
            pool.pending += [p._grad_buf for p in opt.params if p._grad_buf is not None]
        time.sleep(delay)
        step(opt)

    m.setattr(Adam, "step", slow_step)


def fedomd(parts, **overrides):
    cfg = dict(max_rounds=ROUNDS, patience=50, hidden=8, local_epochs=2)
    return FedOMDTrainer(parts, FedOMDConfig(**dict(cfg, **overrides)), seed=0)


def run(monkeypatch, parts, hold=False, **overrides):
    with monkeypatch.context() as m:
        pool = watch_pool(m)
        if hold:
            hold_steps_back(m, pool)
        trainer = fedomd(parts, **overrides)
        trainer.run()
    assert pool.lent == 0 and not pool.pending  # every buffer came back
    return trainer, pool


def test_held_back_steps_never_share_a_buffer_with_a_backward(parts, monkeypatch):
    parallel, pool = run(monkeypatch, parts, hold=True, num_workers=2)
    serial, _ = run(monkeypatch, parts)
    assert pool.taken_while_steps_pending > 0  # the race was really there
    assert pool.reused_while_pending == 0
    assert pool.most_lent >= 2
    assert_bitwise_equal(parallel, serial)


def test_inline_steps_reuse_one_buffer(parts, monkeypatch):
    trainer, pool = run(monkeypatch, parts)
    assert pool.most_lent == 1
    assert len(pool._free) == 1
    # One buffer serves every party: it fits the widest input weight.
    widest = max(c.model.conv_in.weight.data.nbytes for c in trainer.clients)
    assert pool._free[0].nbytes == widest


def test_serial_cs_shaped_run_lends_at_most_two_buffers(monkeypatch):
    # fedbench's cs-m10 shape: the Coauthor-CS twin at scale 0.25, 10
    # Louvain parties, the paper's FedOMD defaults.  Steps that queued
    # up behind a second thread once held up to 6 buffers here.
    g = load_dataset("coauthor-cs", seed=0, scale=0.25)
    cs_parts = louvain_partition(g, 10, np.random.default_rng(0)).parts
    with monkeypatch.context() as m:
        pool = watch_pool(m)
        FedOMDTrainer(cs_parts, FedOMDConfig(max_rounds=2, patience=50), seed=0).run()
    assert pool.lent == 0
    assert 1 <= pool.most_lent <= 2


def test_parallel_clients_take_one_buffer_per_step_in_flight(parts, monkeypatch):
    parallel, pool = run(monkeypatch, parts, num_workers=2)
    serial, _ = run(monkeypatch, parts)
    assert 1 <= pool.most_lent <= 2
    assert_bitwise_equal(parallel, serial)


def test_pooled_gradient_bytes_stay_within_two_input_weights(parts, monkeypatch):
    take_src, first = inspect.getsourcelines(tensor_mod.GradPool.take)
    alloc_line = first + next(i for i, line in enumerate(take_src) if "np.empty(" in line)
    tracemalloc.start()
    try:
        trainer, _ = run(monkeypatch, parts)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    # numpy's data buffers only, not the array objects made on that line.
    data = snapshot.filter_traces([tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
    pooled = sum(
        t.size for t in data.traces
        if t.traceback[0].filename == tensor_mod.__file__ and t.traceback[0].lineno == alloc_line
    )
    widest = max(c.model.conv_in.weight.data.nbytes for c in trainer.clients)
    assert widest <= pooled <= 2 * widest
    for c in trainer.clients:
        # A landed step hands the input weight's gradient back; the
        # other gradients stay until the next zero_grad.
        assert c.model.conv_in.weight.grad is None
        assert c.model.conv_out.weight.grad is not None

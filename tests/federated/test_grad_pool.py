"""The pool of leaf gradients (``repro.autograd.tensor.grad_pool``) in a run.

A leaf's first gradient ``Xᵀ·G`` is written into a pooled buffer, and
``Adam.step`` hands the buffer back once it has consumed it.  A deferred
step runs on the ``fl-step`` thread while the next client's backward
runs, so a buffer must not be handed out again before its step lands:
reusing it under the step would train a different history.  Each test
installs a fresh, watched pool.
"""

import inspect
import threading
import time
import tracemalloc

import numpy as np
import pytest

from repro.autograd import tensor as tensor_mod
from repro.core import FedOMDConfig, FedOMDTrainer
from repro.federated import executor as executor_mod
from repro.graphs import load_dataset, louvain_partition

from tests.federated.test_deferred_step import assert_bitwise_equal, force_deferral

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
        self.pending = []  # buffers of submitted steps that have not landed
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
    """Every deferred step waits ``delay`` s on the ``fl-step`` thread
    first, so later clients' backwards run while it is pending."""
    submit = executor_mod.StepStream.submit  # force_deferral's logging submit

    def slow_submit(stream, owner, step):
        with pool.watch:
            held = [p._grad_buf for p in owner.model.parameters()]
            pool.pending += [b for b in held if b is not None]

        def slow():
            time.sleep(delay)
            step()

        submit(stream, owner, slow)

    m.setattr(executor_mod.StepStream, "submit", slow_submit)


def fedomd(parts, **overrides):
    cfg = dict(max_rounds=ROUNDS, patience=50, hidden=8, local_epochs=2)
    return FedOMDTrainer(parts, FedOMDConfig(**dict(cfg, **overrides)), seed=0)


def run(monkeypatch, parts, defer, hold=False, **overrides):
    with monkeypatch.context() as m:
        submitted = force_deferral(m, defer)
        pool = watch_pool(m)
        if hold:
            hold_steps_back(m, pool)
        trainer = fedomd(parts, **overrides)
        trainer.run()
    assert bool(submitted) == defer
    assert pool.lent == 0 and not pool.pending  # every buffer came back
    return trainer, pool


def test_held_back_steps_never_share_a_buffer_with_a_backward(parts, monkeypatch):
    deferred, pool = run(monkeypatch, parts, defer=True, hold=True)
    inline, _ = run(monkeypatch, parts, defer=False)
    assert pool.taken_while_steps_pending > 0  # the race was really there
    assert pool.reused_while_pending == 0
    assert pool.most_lent >= 2
    assert_bitwise_equal(deferred, inline)


def test_inline_steps_reuse_one_buffer(parts, monkeypatch):
    trainer, pool = run(monkeypatch, parts, defer=False)
    assert pool.most_lent == 1
    assert len(pool._free) == 1
    # One buffer serves every party: it fits the widest input weight.
    widest = max(c.model.conv_in.weight.data.nbytes for c in trainer.clients)
    assert pool._free[0].nbytes == widest


def test_parallel_clients_take_one_buffer_per_step_in_flight(parts, monkeypatch):
    parallel, pool = run(monkeypatch, parts, defer=False, num_workers=2)
    serial, _ = run(monkeypatch, parts, defer=False)
    assert 1 <= pool.most_lent <= 2
    assert_bitwise_equal(parallel, serial)


def test_pooled_gradient_bytes_stay_within_two_input_weights(parts, monkeypatch):
    take_src, first = inspect.getsourcelines(tensor_mod.GradPool.take)
    alloc_line = first + next(i for i, line in enumerate(take_src) if "np.empty(" in line)
    tracemalloc.start()
    try:
        trainer, _ = run(monkeypatch, parts, defer=True)
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

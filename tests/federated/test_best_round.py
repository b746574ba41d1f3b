"""The best-validation round is kept as the best global model.

At a new best round the trainer keeps the server's global state, and a
party that is in sync with it (its model version unchanged since it
downloaded that state) is kept as its rows of it, with no copy; every
other party is copied.  At the end of ``run()`` each party gets back
exactly the parameters an explicit copy taken at that round held.
Covered here, against a trainer that also keeps those copies: both
barrier executors, the async engine with parties in flight, a round
whose aggregate returns ``None``, the ``hard_orthogonal`` projection, a
checkpoint/resume across a best round, four baselines, and the
sanitizer's check of an in-place write that forgot its version bump.
"""

import numpy as np
import pytest

from repro.analysis.sanitize import StaleCacheError
from repro.baselines import FedLITTrainer, FedProxTrainer, FedSagePlusTrainer, ScaffoldTrainer
from repro.core import FedOMDConfig, FedOMDTrainer
from repro.federated import FaultPlan, TrainerConfig
from repro.federated.checkpoint import checkpoint_path, load_trainer_checkpoint
from repro.graphs import load_dataset, louvain_partition


class Killed(RuntimeError):
    pass


class KeepsCopies:
    """Also keeps an explicit ``get_state()`` copy of every party at each best round."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # (round, parties in flight, which parties the trainer copied)
        self.snapshots = []

    def _snapshot_best(self):
        super()._snapshot_best()
        self.copies = [c.get_state() for c in self.clients]
        engine = self.async_engine
        in_flight = set(engine._in_flight) if engine is not None else set()
        copied = [s is not None for s in self._best_states]
        self.snapshots.append((len(self.history.records) - 1, in_flight, copied))


def keeping_copies(cls):
    return type(f"CopyKeeping{cls.__name__}", (KeepsCopies, cls), {})


@pytest.fixture(scope="module")
def parts():
    g = load_dataset("cora", seed=0, scale=0.12)
    return louvain_partition(g, 3, np.random.default_rng(0)).parts


def fedomd(parts, cls=FedOMDTrainer, faults=None, **overrides):
    # Width 32 improves on the validation split in several of 6 rounds
    # on both engines, so the runs below take more than one best round.
    cfg = dict(max_rounds=6, patience=50, hidden=32)
    cfg.update(overrides)
    return cls(parts, FedOMDConfig(**cfg), seed=0, faults=faults)


def bits(arr):
    return np.ascontiguousarray(arr).tobytes()


def assert_restored_bitwise(trainer, copies):
    for client, copy in zip(trainer.clients, copies):
        params = dict(client.model.named_parameters())
        assert params.keys() == copy.keys()
        for name, p in params.items():
            assert bits(p.data) == bits(copy[name]), f"client {client.cid} `{name}`"


@pytest.mark.parametrize("workers", [1, 2])
def test_barrier_keeps_no_copy_of_an_in_sync_party(parts, workers):
    tr = fedomd(parts, keeping_copies(FedOMDTrainer), num_workers=workers)
    tr.run()
    assert_restored_bitwise(tr, tr.copies)
    assert len(tr.snapshots) > 1
    # After a barrier round every party holds its rows of the global state.
    for _, _, copied in tr.snapshots:
        assert copied == [False] * len(tr.clients)
    assert tr._best_states == [None] * len(tr.clients)


def test_async_copies_the_parties_in_flight(parts):
    # Quorum 0.6 of 3 parties folds 2 uploads a round; the third is in flight.
    tr = fedomd(parts, keeping_copies(FedOMDTrainer), engine="async", quorum=0.6)
    tr.run()
    assert_restored_bitwise(tr, tr.copies)
    assert any(in_flight for _, in_flight, _ in tr.snapshots)
    for _, in_flight, copied in tr.snapshots:
        assert in_flight <= {cid for cid, c in enumerate(copied) if c}


def test_a_round_without_aggregate_copies_the_parties_that_trained(parts):
    # Round 0 is always a best round.  Parties 0 and 1 train and crash,
    # party 2 is dropped before it trains: no upload arrives, aggregate()
    # returns None, and only party 2 still holds its rows of W₀.
    plan = FaultPlan.from_spec("crash=1.0:rounds=0:clients=0|1,drop=1.0:rounds=0:clients=2")
    tr = fedomd(parts, keeping_copies(FedOMDTrainer), faults=plan, max_rounds=1)
    tr.run()
    assert tr.snapshots == [(0, set(), [True, True, False])]
    assert_restored_bitwise(tr, tr.copies)

    longer = fedomd(parts, keeping_copies(FedOMDTrainer), faults=plan)
    longer.run()
    assert longer.snapshots[0] == (0, set(), [True, True, False])
    assert_restored_bitwise(longer, longer.copies)


def test_hard_orthogonal_projection(parts):
    tr = fedomd(parts, keeping_copies(FedOMDTrainer), hard_orthogonal=True)
    tr.run()
    assert_restored_bitwise(tr, tr.copies)


@pytest.mark.parametrize(
    "engine", [{}, {"engine": "async", "quorum": 0.6}], ids=["barrier", "async-0.6"]
)
def test_resume_across_a_best_round(parts, tmp_path, engine):
    rounds, kill_at = 6, 3
    ckpt = dict(checkpoint_every=1, checkpoint_dir=str(tmp_path))
    straight = fedomd(parts, keeping_copies(FedOMDTrainer), max_rounds=rounds, **engine)
    straight.run()

    victim = fedomd(parts, max_rounds=rounds, **engine, **ckpt)
    real = victim.begin_round

    def dying(r):
        if r >= kill_at:
            raise Killed(f"simulated crash at round {r}")
        return real(r)

    victim.begin_round = dying
    with pytest.raises(Killed):
        victim.run()
    # The checkpoint carries a best round taken before the kill, written
    # out in full also for the parties kept as rows of the global state,
    # and the resumed run takes a later one.
    best_rounds = [r for r, _, _ in straight.snapshots]
    assert min(best_rounds) < kill_at <= max(best_rounds)
    best_before = max(r for r in best_rounds if r < kill_at)
    saved = fedomd(parts, max_rounds=rounds, **engine)
    load_trainer_checkpoint(saved, checkpoint_path(str(tmp_path)))
    assert saved._best_val == straight.history.records[best_before].val_acc

    resumed = fedomd(parts, max_rounds=rounds, **engine, **ckpt)
    resumed.resume(checkpoint_path(str(tmp_path)))
    resumed.run()
    assert_restored_bitwise(resumed, straight.copies)


def test_checkpoint_writes_the_best_round_of_an_in_sync_party(parts, tmp_path):
    # A best round at the last checkpointed round and none after it: the
    # resumed run restores the arrays the checkpoint materialized.
    straight = fedomd(parts, keeping_copies(FedOMDTrainer), max_rounds=1)
    straight.run()
    assert straight._best_states == [None] * len(straight.clients)
    ckpt = dict(checkpoint_every=1, checkpoint_dir=str(tmp_path))
    fedomd(parts, max_rounds=1, **ckpt).run()
    resumed = fedomd(parts, max_rounds=1, **ckpt)
    resumed.resume(checkpoint_path(str(tmp_path)))
    assert all(isinstance(s, dict) for s in resumed._best_states)
    resumed.run()
    assert_restored_bitwise(resumed, straight.copies)


@pytest.mark.parametrize(
    "cls", [FedProxTrainer, ScaffoldTrainer, FedSagePlusTrainer, FedLITTrainer]
)
def test_baselines(parts, cls):
    tr = keeping_copies(cls)(parts, TrainerConfig(max_rounds=3, patience=50, hidden=16), seed=0)
    tr.run()
    assert_restored_bitwise(tr, tr.copies)


def test_sanitizer_catches_an_unbumped_write(parts):
    tr = fedomd(parts, max_rounds=1, sanitize=True)
    real = tr.evaluate

    def evaluate_after_a_stray_write(split="test"):
        if split == "val" and not tr.history.records:
            # Round 0 (always a best round), after its download: a write
            # with no version bump.
            tr.clients[1].model.conv_out.bias.data[0] += 1.0
        return real(split)

    tr.evaluate = evaluate_after_a_stray_write
    with pytest.raises(StaleCacheError, match="client 1's parameter `conv_out.bias`"):
        tr.run()

"""Checkpoint/resume: a killed-and-resumed run is bitwise-identical.

The kill is simulated by monkeypatching ``begin_round`` to raise at a
chosen round — after the previous round's checkpoint was written, before
any new work — then resuming a *freshly constructed* trainer from the
snapshot.  "Identical" means: history ``metrics_equal`` the
uninterrupted run's AND every final weight array equal to the bit.
"""

import numpy as np
import pytest

from repro.federated import FederatedTrainer, TrainerConfig
from repro.federated.checkpoint import (
    checkpoint_path,
    load_trainer_checkpoint,
    save_trainer_checkpoint,
)
from repro.federated.faults import FaultPlan

ROUNDS = 6
KILL_AT = 4  # checkpoint_every=2 ⇒ snapshot exists for next_round=4


class Killed(RuntimeError):
    pass


def make_config(ckpt_dir=None, **overrides):
    base = dict(max_rounds=ROUNDS, patience=50, hidden=8)
    if ckpt_dir is not None:
        base.update(checkpoint_every=2, checkpoint_dir=str(ckpt_dir))
    base.update(overrides)
    return TrainerConfig(**base)


def kill_at_round(trainer, round_idx):
    original = trainer.begin_round

    def dying(r):
        if r >= round_idx:
            raise Killed(f"simulated crash at round {r}")
        return original(r)

    trainer.begin_round = dying


def run_interrupted(parts, ckpt_dir, faults=None, resume_overrides=None):
    victim = FederatedTrainer(parts, make_config(ckpt_dir), seed=0, faults=faults)
    kill_at_round(victim, KILL_AT)
    with pytest.raises(Killed):
        victim.run()

    cfg = make_config(ckpt_dir, **(resume_overrides or {}))
    resumed = FederatedTrainer(parts, cfg, seed=0, faults=faults)
    resumed.resume(checkpoint_path(str(ckpt_dir)))
    assert resumed._start_round == KILL_AT
    return resumed, resumed.run()


def assert_states_bitwise_equal(a, b):
    for ca, cb in zip(a.clients, b.clients):
        sa, sb = ca.get_state(), cb.get_state()
        assert sa.keys() == sb.keys()
        for k in sa:
            np.testing.assert_array_equal(sa[k], sb[k], err_msg=f"client {ca.cid}/{k}")


class TestResumeBitwise:
    def test_clean_run(self, parts, tmp_path):
        baseline = FederatedTrainer(parts, make_config(), seed=0)
        base_hist = baseline.run()
        resumed, hist = run_interrupted(parts, tmp_path)
        assert hist.metrics_equal(base_hist)
        assert_states_bitwise_equal(resumed, baseline)

    def test_under_faults(self, parts, tmp_path):
        spec = "drop=0.2,straggler=0.3:delay=0.001,corrupt=0.2:mode=nan,crash=0.2"
        baseline = FederatedTrainer(
            parts, make_config(), seed=0, faults=FaultPlan.from_spec(spec, seed=5)
        )
        base_hist = baseline.run()
        resumed, hist = run_interrupted(
            parts, tmp_path, faults=FaultPlan.from_spec(spec, seed=5)
        )
        assert hist.metrics_equal(base_hist)
        assert_states_bitwise_equal(resumed, baseline)

    def test_parallel_resume_of_serial_run(self, parts, tmp_path):
        # num_workers is operational: a serial run's checkpoint may resume
        # parallel and must land on the same bits.
        baseline = FederatedTrainer(parts, make_config(), seed=0)
        base_hist = baseline.run()
        resumed, hist = run_interrupted(
            parts, tmp_path, resume_overrides={"num_workers": 3}
        )
        assert hist.metrics_equal(base_hist)
        assert_states_bitwise_equal(resumed, baseline)

    def test_parallel_checkpoint_resumed_serially(self, parts, tmp_path):
        baseline = FederatedTrainer(parts, make_config(num_workers=3), seed=0)
        base_hist = baseline.run()
        victim = FederatedTrainer(parts, make_config(tmp_path, num_workers=3), seed=0)
        kill_at_round(victim, KILL_AT)
        with pytest.raises(Killed):
            victim.run()
        resumed = FederatedTrainer(parts, make_config(tmp_path), seed=0)
        resumed.resume(checkpoint_path(str(tmp_path)))
        assert resumed.run().metrics_equal(base_hist)
        assert_states_bitwise_equal(resumed, baseline)

    def test_resumed_history_contains_prefix(self, parts, tmp_path):
        resumed, hist = run_interrupted(parts, tmp_path)
        assert [r.round for r in hist.records] == list(range(ROUNDS))


class TestCheckpointContents:
    def test_comm_stats_continue_not_reset(self, parts, tmp_path):
        baseline = FederatedTrainer(parts, make_config(), seed=0)
        baseline.run()
        resumed, _ = run_interrupted(parts, tmp_path)
        assert resumed.comm.stats.uplink_bytes == baseline.comm.stats.uplink_bytes
        assert resumed.comm.stats.by_kind == baseline.comm.stats.by_kind

    def test_optimizer_state_round_trips(self, parts, tmp_path):
        tr = FederatedTrainer(parts, make_config(), seed=0)
        tr.run()
        path = save_trainer_checkpoint(tr, checkpoint_path(str(tmp_path)), next_round=ROUNDS)
        fresh = FederatedTrainer(parts, make_config(), seed=0)
        load_trainer_checkpoint(fresh, path)
        steps = []
        for a, b in zip(tr.clients, fresh.clients):
            sa, sb = a.optimizer.state_dict(), b.optimizer.state_dict()
            assert sa["t"] == sb["t"]
            steps.append(sa["t"])
            for ma, mb in zip(sa["m"], sb["m"]):
                np.testing.assert_array_equal(ma, mb)
        # Parties without labeled nodes never step (t stays 0), but the
        # federation as a whole must have trained.
        assert max(steps) > 0

    def test_early_stop_state_round_trips(self, parts, tmp_path):
        tr = FederatedTrainer(parts, make_config(), seed=0)
        tr.run()
        path = save_trainer_checkpoint(tr, checkpoint_path(str(tmp_path)), next_round=ROUNDS)
        fresh = FederatedTrainer(parts, make_config(), seed=0)
        load_trainer_checkpoint(fresh, path)
        assert fresh._best_val == tr._best_val
        assert fresh._rounds_since_best == tr._rounds_since_best
        assert (fresh._best_states is None) == (tr._best_states is None)


class TestCheckpointValidation:
    def save_one(self, parts, tmp_path, **cfg):
        tr = FederatedTrainer(parts, make_config(**cfg), seed=0)
        tr.run()
        return save_trainer_checkpoint(tr, checkpoint_path(str(tmp_path)), next_round=2)

    def test_config_mismatch_raises(self, parts, tmp_path):
        path = self.save_one(parts, tmp_path)
        other = FederatedTrainer(parts, make_config(lr=0.5), seed=0)
        with pytest.raises(ValueError, match="lr"):
            load_trainer_checkpoint(other, path)

    def test_dtype_mismatch_raises(self, parts, tmp_path):
        parts64 = [p.astype(np.float64) for p in parts]
        path = self.save_one(parts64, tmp_path)
        float32 = FederatedTrainer(parts, make_config(), seed=0)
        with pytest.raises(ValueError, match=r"config mismatch on \['dtype'\]"):
            load_trainer_checkpoint(float32, path)

    def test_float32_checkpoint_holds_float32_state(self, parts, tmp_path):
        path = self.save_one(parts, tmp_path)
        fresh = FederatedTrainer(parts, make_config(), seed=0)
        load_trainer_checkpoint(fresh, path)
        for c in fresh.clients:
            assert {v.dtype for v in c.get_state().values()} == {np.dtype(np.float32)}
            assert {m.dtype for m in c.optimizer._m + c.optimizer._v} == {np.dtype(np.float32)}

    def test_operational_fields_may_differ(self, parts, tmp_path):
        path = self.save_one(parts, tmp_path)
        other = FederatedTrainer(parts, make_config(num_workers=2), seed=0)
        load_trainer_checkpoint(other, path)  # must not raise

    def test_client_count_mismatch_raises(self, parts, tmp_path):
        path = self.save_one(parts, tmp_path)
        fewer = FederatedTrainer(parts[:3], make_config(), seed=0)
        with pytest.raises(ValueError, match="clients"):
            load_trainer_checkpoint(fewer, path)

    def test_trainer_kind_mismatch_raises(self, parts, tmp_path):
        from repro.core import FedOMDConfig, FedOMDTrainer

        path = self.save_one(parts, tmp_path)
        omd = FedOMDTrainer(
            parts, FedOMDConfig(max_rounds=ROUNDS, patience=50, hidden=8), seed=0
        )
        with pytest.raises(ValueError, match="saved by"):
            load_trainer_checkpoint(omd, path)

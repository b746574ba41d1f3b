"""Tests for the bounded model checker over the async round engine.

Covers the schedule algebra (Lehmer ranks, id codec, DPOR enumeration),
the equivalence verdict on the real engine, divergence detection against
the injected pop-order fold, checkpoint/resume legs, schedule replay,
and one pinned interleaving as a seeded regression.
"""

import math

import pytest

from repro.analysis.modelcheck import (
    check,
    decode_schedule_id,
    digits_from_rank,
    encode_schedule_id,
    enumerate_schedules,
    main as mc_main,
    rank_from_digits,
    run_digest,
    run_schedule,
)
from repro.experiments.loadtest import make_parties


class TestLehmerCodec:
    def test_rank_digit_round_trip_exhaustive_n4(self):
        seen = set()
        for rank in range(math.factorial(4)):
            digits = digits_from_rank(rank, 4)
            assert all(0 <= d <= 3 - k for k, d in enumerate(digits))
            assert rank_from_digits(digits) == rank
            seen.add(digits)
        assert len(seen) == 24

    def test_rank_out_of_range_raises(self):
        with pytest.raises(ValueError):
            digits_from_rank(24, 4)

    def test_schedule_id_round_trip(self):
        for ranks in [(0, 0), (1, 0), (0, 23), (23, 23), (5, 17)]:
            sid = encode_schedule_id(4, 2, ranks)
            assert decode_schedule_id(sid) == (4, 2, ranks)

    def test_identity_is_id_zero(self):
        assert encode_schedule_id(4, 2, (0, 0)) == "mc4x2-0"

    @pytest.mark.parametrize("bad", ["mc4x2", "mcXx2-0", "mc4x2-!!", "mc4x2-zzzz"])
    def test_malformed_ids_raise(self, bad):
        with pytest.raises(ValueError):
            decode_schedule_id(bad)


class TestEnumeration:
    def test_identity_enumerated_first(self):
        scheds, _ = enumerate_schedules(4, 2, 10)
        assert scheds[0] == (0, 0)

    def test_single_round_perturbations_before_products(self):
        scheds, _ = enumerate_schedules(3, 2, 11)
        # identity, then 5 non-identity ranks in round 0, then round 1.
        assert scheds[1:6] == [(k, 0) for k in range(1, 6)]
        assert scheds[6:11] == [(0, k) for k in range(1, 6)]

    def test_cap_and_raw_space(self):
        scheds, total = enumerate_schedules(4, 2, 100)
        assert total == 576 and len(scheds) == 100
        assert len(set(scheds)) == 100  # no duplicates

    def test_exhaustive_covers_everything(self):
        scheds, total = enumerate_schedules(3, 1, None)
        assert total == 6 and sorted(scheds) == [(k,) for k in range(6)]


class TestEquivalence:
    def test_all_explored_schedules_bitwise_equivalent(self):
        result = check(
            clients=3, rounds=2, seed=0, max_schedules=8,
            resume_checks=1, inject_race=False,
        )
        assert result["explored"] == 8
        assert result["distinct_digests"] == 1
        assert result["divergent"] == []
        assert result["resume_failures"] == []
        assert result["resume_checked"] == 1
        assert result["dpor_kept_ratio"] == pytest.approx(8 / 36)

    def test_injected_race_diverges_with_replayable_ids(self):
        result = check(
            clients=3, rounds=1, seed=0, max_schedules=6,
            resume_checks=0, inject_race=True,
        )
        assert result["divergent"], "pop-order fold must be schedule-dependent"
        assert result["distinct_digests"] > 1
        for sid, digest in result["divergent"]:
            n, rounds, ranks = decode_schedule_id(sid)
            assert (n, rounds) == (3, 1)
            assert digest != result["baseline_digest"]

    def test_cli_exit_codes(self, capsys):
        ok = mc_main(
            ["--clients", "3", "--rounds", "1", "--max-schedules", "4",
             "--resume-checks", "0"]
        )
        assert ok == 0
        assert "bitwise-equivalent" in capsys.readouterr().out
        bad = mc_main(
            ["--clients", "3", "--rounds", "1", "--max-schedules", "4",
             "--resume-checks", "0", "--inject-race"]
        )
        out = capsys.readouterr().out
        assert bad == 2
        assert "DIVERGENT" in out and "--replay" in out


# The concrete interleaving pinned below was produced by
# `python -m repro.analysis.modelcheck --replay mc4x2-1 --inject-race`:
# round 0 pops clients in order 2,3,1,0 (rank 1 swaps the last pair of
# the ready set), round 1 in arrival order 1,2,0,3.  The digest moved
# once when the checker's GCN began reading its features through spmm.
PINNED_SID = "mc4x2-1"
PINNED_POPS = [
    (2, 0, 2), (3, 0, 3), (1, 0, 1), (0, 0, 0),
    (1, 1, 5), (2, 1, 6), (0, 1, 4), (3, 1, 7),
]
PINNED_RACY_DIGEST = "4d700f99ce90cf2539098583b861da82"


class TestSeededRegression:
    def _replay(self, inject):
        n, rounds, ranks = decode_schedule_id(PINNED_SID)
        parts = make_parties(n, 0)
        return run_schedule(parts, 0, rounds, ranks, inject_race=inject)

    def test_pinned_schedule_pop_trace(self):
        _, ctrl = self._replay(inject=False)
        assert [(c, r, s) for c, r, s, _ in ctrl.trace] == PINNED_POPS
        times = [t for _, _, _, t in ctrl.trace]
        # Virtual pop time is non-decreasing within the engine (the pop
        # advances the clock to max(report.time, now)); the raw report
        # times may be out of order — that is the point of the schedule.
        assert times[0] == pytest.approx(0.054979, abs=1e-6)

    def test_pinned_schedule_matches_identity_on_real_engine(self):
        trainer, _ = self._replay(inject=False)
        n, rounds, ranks = decode_schedule_id(PINNED_SID)
        identity, _ = run_schedule(make_parties(n, 0), 0, rounds, (0,) * rounds)
        assert run_digest(trainer) == run_digest(identity)
        assert trainer.history.metrics_equal(identity.history, tol=0.0)

    def test_pinned_schedule_divergence_is_bitwise_reproducible(self):
        trainer, _ = self._replay(inject=True)
        assert run_digest(trainer) == PINNED_RACY_DIGEST

    def test_cli_replay_prints_trace_and_digest(self, capsys):
        assert mc_main(["--replay", PINNED_SID, "--inject-race"]) == 0
        out = capsys.readouterr().out
        assert PINNED_RACY_DIGEST in out
        assert "cid=2 round=0 seq=2" in out.splitlines()[2]


class TestResumeEquivalence:
    def test_resume_legs_match_uninterrupted_run(self):
        # resume_checks=2 exercises the snapshot/resume path on the
        # first two schedules (identity + one perturbation).
        result = check(
            clients=3, rounds=2, seed=1, max_schedules=3,
            resume_checks=2, inject_race=False,
        )
        assert result["resume_checked"] == 2
        assert result["resume_failures"] == []
        assert result["divergent"] == []

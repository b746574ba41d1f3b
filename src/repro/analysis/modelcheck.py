"""Bounded model checker for the async round engine's schedule space.

``python -m repro.analysis.modelcheck --clients 4 --rounds 2`` drives
real federated runs (tiny SBM parties, the same builder as the load
test) through *controlled* schedules of event arrival and worker-task
interleaving, and asserts three properties on every explored schedule:

* **Schedule equivalence** — at full quorum the aggregated global
  model, every client state, and the training history are
  bitwise-identical to the uncontrolled baseline run (compared by
  blake2b digest plus :meth:`TrainingHistory.metrics_equal` at
  ``tol=0.0``).  This is the project's check that aggregation is
  order-insensitive:
  :func:`~repro.federated.async_engine.fold_arrivals` sorts arrivals by
  client id, so no permutation of pops may change a bit.
* **Checkpoint/resume equivalence** — for the first ``--resume-checks``
  schedules the run checkpoints at every round boundary (the
  ``async.checkpoint`` yield point snapshots each file); a fresh
  trainer resumed from each boundary and driven through the *same*
  schedule suffix must land on the same digest.
* **Protocol legality** — every run is armed with a per-client
  :class:`~repro.analysis.sanitize.ProtocolMonitor`, so an explored
  schedule that drives the communicator through an Algorithm 1
  lattice-illegal transition raises immediately.

Scheduling model and DPOR bound
-------------------------------
The controller owns two yield points: ``async.pop`` (which pending
report arrives next — modeling network reordering; the clock advances
to ``max(report.time, now)`` so virtual time stays monotone) and
``executor.task`` (which client task the worker loop runs next).  With
``n`` clients at full quorum a round pops exactly ``n`` reports, so a
round's arrival order is a permutation of its dispatched set and the
raw schedule space is ``(n!)^rounds``.

Aggregation at full quorum is a *barrier*: every report of round ``r``
is consumed before round ``r+1`` dispatches, so cross-round
interleavings are concurrency-irrelevant — two schedules that agree
within every round are Mazurkiewicz-equivalent.  The checker therefore
explores the identity schedule, then each single-round permutation
against identity context (covering every trace class that differs in
one round), then fills with product schedules up to ``--max-schedules``
(default 120) or ``--exhaustive``.  ``dpor_kept_ratio`` in
``BENCH_modelcheck.json`` records explored/total.

Schedule ids and replay
-----------------------
A schedule is named ``mc<n>x<rounds>-<rank36>`` where ``rank`` is the
mixed-radix number ``Σ_r lehmer_rank(perm_r) · (n!)^r``.  Any id the
checker prints (a divergence report, a bench line) replays exactly with
``--replay <id>``, which also prints the pop-boundary trace
``(cid, round, seq, time)`` for diffing two runs.

``--inject-race`` swaps the order-insensitive fold for a running-mean
left-fold in pop order — the schedule-dependent aggregation this
checker exists to keep out.  The checker must then *fail* with a
replayable schedule id; the test suite and CI pin that known positive.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import shutil
import tempfile
import time
import types
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.sanitize import SanitizerSession
from repro.federated import FederatedTrainer, TrainerConfig
from repro.federated.clock import ScheduleController

__all__ = [
    "PermutationController",
    "decode_schedule_id",
    "digits_from_rank",
    "encode_schedule_id",
    "enumerate_schedules",
    "main",
    "rank_from_digits",
    "run_schedule",
]

_B36 = "0123456789abcdefghijklmnopqrstuvwxyz"


# ----------------------------------------------------------------------
# schedule naming: Lehmer codes and mixed-radix ranks
# ----------------------------------------------------------------------
def digits_from_rank(rank: int, n: int) -> Tuple[int, ...]:
    """Lehmer digits ``d_k ∈ [0, n-1-k]`` of permutation ``rank`` of n items."""
    if not 0 <= rank < math.factorial(n):
        raise ValueError(f"rank {rank} out of range for {n} items")
    digits = []
    for i in range(n - 1, -1, -1):
        d, rank = divmod(rank, math.factorial(i))
        digits.append(d)
    return tuple(digits)


def rank_from_digits(digits: Sequence[int]) -> int:
    n = len(digits)
    return sum(d * math.factorial(n - 1 - k) for k, d in enumerate(digits))


def _b36(num: int) -> str:
    if num == 0:
        return "0"
    out = []
    while num:
        num, r = divmod(num, 36)
        out.append(_B36[r])
    return "".join(reversed(out))


def encode_schedule_id(n: int, rounds: int, ranks: Sequence[int]) -> str:
    fact = math.factorial(n)
    combined = sum(r * fact**i for i, r in enumerate(ranks))
    return f"mc{n}x{rounds}-{_b36(combined)}"


def decode_schedule_id(sid: str) -> Tuple[int, int, Tuple[int, ...]]:
    """``(clients, rounds, per-round ranks)`` of an ``mc<n>x<r>-<rank36>`` id."""
    try:
        head, tail = sid.split("-", 1)
        n_s, rounds_s = head[2:].split("x")
        n, rounds = int(n_s), int(rounds_s)
        combined = int(tail, 36)
    except (ValueError, IndexError) as exc:
        raise ValueError(f"malformed schedule id {sid!r}") from exc
    fact = math.factorial(n)
    if not 0 <= combined < fact**rounds:
        raise ValueError(f"schedule id {sid!r} out of range")
    ranks = tuple((combined // fact**i) % fact for i in range(rounds))
    return n, rounds, ranks


def enumerate_schedules(
    n: int, rounds: int, cap: Optional[int]
) -> Tuple[List[Tuple[int, ...]], int]:
    """DPOR-ordered schedule list (per-round ranks) and the raw space size.

    Order: identity first, then every single-round permutation against
    identity context (one representative per trace class differing in
    one round — the round barrier makes other rounds irrelevant to it),
    then product schedules in mixed-radix order until ``cap``.
    ``cap=None`` keeps everything (exhaustive).
    """
    fact = math.factorial(n)
    total = fact**rounds
    limit = total if cap is None else min(cap, total)
    scheds: List[Tuple[int, ...]] = []
    seen = set()

    def add(ranks: Tuple[int, ...]) -> bool:
        if ranks not in seen:
            seen.add(ranks)
            scheds.append(ranks)
        return len(scheds) >= limit

    if add((0,) * rounds):
        return scheds, total
    for r in range(rounds):
        for k in range(fact):
            if add(tuple(k if i == r else 0 for i in range(rounds))):
                return scheds, total
    for combined in range(total):
        if add(tuple((combined // fact**i) % fact for i in range(rounds))):
            return scheds, total
    return scheds, total


# ----------------------------------------------------------------------
# the controller
# ----------------------------------------------------------------------
class PermutationController(ScheduleController):
    """Drives one schedule: per-round Lehmer digits pick each pop.

    ``async.round`` yields tell it which round is live (so a resumed run
    needs no offset bookkeeping); ``async.pop`` yields record the
    pop-boundary trace ``(cid, round, seq, time)``; ``async.checkpoint``
    yields invoke ``on_checkpoint`` (the checker snapshots the
    just-written checkpoint file there).  Executor tasks are rotated by
    the round's rank so worker interleaving varies across schedules too.
    """

    def __init__(
        self,
        round_digits: Dict[int, Tuple[int, ...]],
        on_checkpoint=None,
    ) -> None:
        self.round_digits = round_digits
        self.on_checkpoint = on_checkpoint
        self.round = 0
        self.trace: List[Tuple[int, int, int, float]] = []
        self._slots: Dict[int, int] = {}

    def choose(self, point: str, candidates: Sequence) -> int:
        if not candidates:
            raise ValueError("choose() needs at least one candidate")
        if point == "async.pop":
            digits = self.round_digits.get(self.round)
            slot = self._slots.get(self.round, 0)
            self._slots[self.round] = slot + 1
            if digits is None or slot >= len(digits):
                return 0
            d = digits[slot]
            return d if d < len(candidates) else 0
        if point == "executor.task":
            digits = self.round_digits.get(self.round) or ()
            return rank_from_digits(digits) % len(candidates) if digits else 0
        return 0

    def on_yield(self, point: str, **info) -> None:
        if point == "async.round":
            self.round = int(info["round"])
        elif point == "async.pop":
            r = info["report"]
            self.trace.append((r.cid, r.round, r.seq, float(r.time)))
        elif point == "async.checkpoint" and self.on_checkpoint is not None:
            self.on_checkpoint(int(info["round"]))


# ----------------------------------------------------------------------
# one controlled run
# ----------------------------------------------------------------------
def _build_trainer(
    parts, seed: int, rounds: int, ckpt_dir: Optional[str]
) -> FederatedTrainer:
    cfg = TrainerConfig(
        max_rounds=rounds,
        patience=10 * rounds,  # the checker compares full trajectories
        hidden=8,
        engine="async",
        quorum=1.0,  # full quorum: the bitwise-equivalence regime
        checkpoint_every=1 if ckpt_dir else 0,
        checkpoint_dir=ckpt_dir,
    )
    return FederatedTrainer(parts, cfg, seed=seed)


def _racy_aggregate(self, arrivals):
    """Injected bug: running-mean left-fold in pop order.

    Float addition is not associative, so this makes the global model a
    function of the arrival schedule — exactly what
    :func:`~repro.federated.async_engine.fold_arrivals`'s cid-sort
    prevents.  Kept here (never on any production path) so the
    checker's divergence detection has a known-positive to catch.
    """
    if not arrivals:
        return None
    acc = {k: v.astype(np.float64, copy=True) for k, v in arrivals[0].state.items()}
    for count, update in enumerate(arrivals[1:], start=2):
        for key in acc:
            acc[key] += (update.state[key] - acc[key]) / count
    return acc


def run_schedule(
    parts,
    seed: int,
    rounds: int,
    ranks: Optional[Sequence[int]],
    ckpt_dir: Optional[str] = None,
    on_checkpoint=None,
    inject_race: bool = False,
) -> Tuple[FederatedTrainer, Optional[PermutationController]]:
    """One full federated run under the given schedule (None = uncontrolled).

    The sanitizer session is attached without ``install()``: the
    protocol lattice and the schedule controller arm with zero autograd
    overhead.
    """
    n = len(parts)
    trainer = _build_trainer(parts, seed, rounds, ckpt_dir)
    ctrl: Optional[PermutationController] = None
    if ranks is not None:
        digits = {r: digits_from_rank(rank, n) for r, rank in enumerate(ranks)}
        ctrl = PermutationController(digits, on_checkpoint=on_checkpoint)
    session = SanitizerSession(
        per_client_protocol=True, schedule_controller=ctrl
    )
    session.attach_communicator(trainer.comm)
    if ctrl is not None:
        session.attach_clock(trainer.clock)
        session.attach_executor(trainer.executor)
    if inject_race:
        engine = trainer.async_engine
        engine._aggregate = types.MethodType(_racy_aggregate, engine)
    trainer.run()
    return trainer, ctrl


def run_digest(trainer: FederatedTrainer) -> str:
    """blake2b over the global model, every client state, and the metrics."""
    h = hashlib.blake2b(digest_size=16)
    engine = trainer.async_engine
    if engine is not None and engine.global_state is not None:
        for key in sorted(engine.global_state):
            h.update(key.encode())
            h.update(np.ascontiguousarray(engine.global_state[key]).tobytes())
    for client in trainer.clients:
        state = client.get_state()
        for key in sorted(state):
            h.update(np.ascontiguousarray(state[key]).tobytes())
    for rec in trainer.history.records:
        h.update(repr(sorted(rec.metrics_dict().items())).encode())
    return h.hexdigest()


# ----------------------------------------------------------------------
# the checker
# ----------------------------------------------------------------------
def _resume_digests(
    parts,
    seed: int,
    rounds: int,
    ranks: Sequence[int],
    td: str,
    copies: Dict[int, str],
) -> List[Tuple[int, str, FederatedTrainer]]:
    """Resume from every snapshotted boundary; (round, digest, trainer)."""
    n = len(parts)
    out = []
    for boundary in sorted(copies):
        if boundary >= rounds - 1:
            continue  # final checkpoint: nothing left to replay
        trainer = _build_trainer(parts, seed, rounds, td)
        digits = {r: digits_from_rank(rank, n) for r, rank in enumerate(ranks)}
        ctrl = PermutationController(digits)
        session = SanitizerSession(
            per_client_protocol=True, schedule_controller=ctrl
        )
        session.attach_communicator(trainer.comm)
        session.attach_clock(trainer.clock)
        session.attach_executor(trainer.executor)
        trainer.resume(copies[boundary])
        trainer.run()
        out.append((boundary, run_digest(trainer), trainer))
    return out


def check(
    clients: int,
    rounds: int,
    seed: int,
    max_schedules: Optional[int],
    resume_checks: int,
    inject_race: bool,
) -> dict:
    """Explore the schedule space; returns the result summary dict."""
    from repro.experiments.loadtest import make_parties

    parts = make_parties(clients, seed)
    schedules, total = enumerate_schedules(clients, rounds, max_schedules)

    t0 = time.perf_counter()
    # The baseline carries the injected bug too: divergence must then
    # demonstrate *schedule dependence*, not merely that the racy fold
    # computes different numbers than fedavg.
    baseline, _ = run_schedule(parts, seed, rounds, None, inject_race=inject_race)
    base_digest = run_digest(baseline)

    divergent: List[Tuple[str, str]] = []
    resume_failures: List[Tuple[str, int]] = []
    digests = set()
    explored = 0
    for i, ranks in enumerate(schedules):
        sid = encode_schedule_id(clients, rounds, ranks)
        with_resume = i < resume_checks and not inject_race
        if with_resume:
            with tempfile.TemporaryDirectory() as td:
                copies: Dict[int, str] = {}

                def snapshot(round_idx: int, _td=td, _copies=copies) -> None:
                    from repro.federated.checkpoint import checkpoint_path

                    src = checkpoint_path(_td)
                    if os.path.exists(src):
                        dst = os.path.join(_td, f"round{round_idx}.ckpt.npz")
                        shutil.copyfile(src, dst)
                        _copies[round_idx] = dst

                trainer, _ = run_schedule(
                    parts, seed, rounds, ranks, ckpt_dir=td, on_checkpoint=snapshot
                )
                digest = run_digest(trainer)
                for boundary, rdigest, resumed in _resume_digests(
                    parts, seed, rounds, ranks, td, copies
                ):
                    if rdigest != digest or not resumed.history.metrics_equal(
                        trainer.history, tol=0.0
                    ):
                        resume_failures.append((sid, boundary))
        else:
            trainer, _ = run_schedule(
                parts, seed, rounds, ranks, inject_race=inject_race
            )
            digest = run_digest(trainer)
        explored += 1
        digests.add(digest)
        if digest != base_digest or not trainer.history.metrics_equal(
            baseline.history, tol=0.0
        ):
            divergent.append((sid, digest))
    elapsed = time.perf_counter() - t0

    return {
        "clients": clients,
        "rounds": rounds,
        "seed": seed,
        "explored": explored,
        "total_space": total,
        "distinct_digests": len(digests),
        "baseline_digest": base_digest,
        "divergent": divergent,
        "resume_failures": resume_failures,
        "resume_checked": min(resume_checks, explored) if not inject_race else 0,
        "explore_s": elapsed,
        "per_schedule_s": elapsed / max(explored, 1),
        "dpor_kept_ratio": explored / total,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.modelcheck",
        description="bounded model checker for the async round engine",
    )
    parser.add_argument("--clients", type=int, default=4)
    parser.add_argument("--rounds", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--max-schedules",
        type=int,
        default=120,
        help="schedule budget after DPOR pruning (default 120)",
    )
    parser.add_argument(
        "--exhaustive",
        action="store_true",
        help="explore the full (n!)^rounds space (ignores --max-schedules)",
    )
    parser.add_argument(
        "--resume-checks",
        type=int,
        default=2,
        help="checkpoint/resume-equivalence legs for the first N schedules",
    )
    parser.add_argument(
        "--inject-race",
        action="store_true",
        help="swap in a pop-order left-fold; the checker must diverge",
    )
    parser.add_argument(
        "--replay",
        metavar="ID",
        help="re-run one schedule id, print its pop trace and digest",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.replay:
        from repro.experiments.loadtest import make_parties

        n, rounds, ranks = decode_schedule_id(args.replay)
        parts = make_parties(n, args.seed)
        trainer, ctrl = run_schedule(
            parts, args.seed, rounds, ranks, inject_race=args.inject_race
        )
        print(f"schedule {args.replay}  digest {run_digest(trainer)}")
        print("pop trace (cid, round, seq, time):")
        for cid, rnd, seq, t in ctrl.trace:
            print(f"  cid={cid} round={rnd} seq={seq} t={t:.6f}")
        return 0

    result = check(
        clients=args.clients,
        rounds=args.rounds,
        seed=args.seed,
        max_schedules=None if args.exhaustive else args.max_schedules,
        resume_checks=args.resume_checks,
        inject_race=args.inject_race,
    )

    print(
        f"modelcheck: {result['explored']} schedules explored "
        f"({result['total_space']} raw, kept ratio "
        f"{result['dpor_kept_ratio']:.4f}), "
        f"{result['distinct_digests']} distinct outcome(s), "
        f"{result['resume_checked']} resume-checked, "
        f"{result['explore_s']:.2f}s "
        f"({result['per_schedule_s'] * 1e3:.1f} ms/schedule)"
    )

    failed = False
    for sid, digest in result["divergent"]:
        failed = True
        print(
            f"DIVERGENT schedule {sid}: digest {digest} != baseline "
            f"{result['baseline_digest']}  (replay: python -m "
            f"repro.analysis.modelcheck --replay {sid}"
            + (" --inject-race" if args.inject_race else "")
            + ")"
        )
    for sid, boundary in result["resume_failures"]:
        failed = True
        print(
            f"RESUME MISMATCH schedule {sid} at round boundary {boundary}: "
            "resumed run diverged from its uninterrupted twin"
        )
    if failed:
        return 2
    print("all explored schedules bitwise-equivalent; resume legs consistent")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

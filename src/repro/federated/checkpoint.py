"""Round-level checkpoint/resume for federated runs.

A federated run killed at round *k* must be resumable such that the
continued run is **indistinguishable** from an uninterrupted one: the
training trajectory (history metrics), every client's model, and all
future random draws replay identically.  That requires capturing more
than model weights:

* every client's model ``state_dict`` **and** optimizer buffers (Adam's
  step count and moment estimates — without them the first resumed step
  would use cold bias-correction and diverge numerically), each in the
  client's own shape (only the rows a party holds);
* the server's full-size global state, which holds the rows no party
  holds, and its best-validation snapshot;
* every RNG that advances during training: each client model's dropout
  generator (``PCG64`` states serialize as JSON-safe big-int dicts);
* the early-stopping state (best validation accuracy, rounds since
  best, and the best-model snapshot per client, written out in full
  also for a party the trainer keeps as its rows of the best global
  state);
* the metered :class:`~repro.federated.comm.CommStats` (history records
  report cumulative byte counters — a resume that reset them would
  fork the history);
* the history recorded so far, and the index of the next round to run.

Everything lands in one ``.npz`` via
:func:`repro.nn.serialize.save_arrays` — arrays for the heavy state,
a JSON metadata blob for scalars, RNG states and the config echo.  A
checkpoint saved under one config refuses to restore into a trainer
built with a different one (silently resuming into changed
hyper-parameters is how irreproducible results happen).

Fault plans need no state here: a :class:`~repro.federated.faults.FaultPlan`
is a pure function of ``(seed, round, client)``, so a resumed run
re-derives the exact fault schedule from round *k* onward.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Dict, List, Optional

import numpy as np

from repro.federated.comm import CommStats
from repro.federated.history import RoundRecord, TrainingHistory
from repro.nn.serialize import load_arrays, save_arrays
from repro.obs import get_registry, get_tracer

CHECKPOINT_VERSION = 2


def _rng_state(gen: Optional[np.random.Generator]) -> Optional[dict]:
    return None if gen is None else gen.bit_generator.state


def _set_rng_state(gen: Optional[np.random.Generator], state: Optional[dict]) -> None:
    if gen is not None and state is not None:
        gen.bit_generator.state = state


# Config fields that do not influence the training trajectory: a
# checkpoint may legally resume under different values of these (e.g.
# resume a serial run with 4 workers — metrics are contractually equal,
# see tests/federated/test_parallel.py — or resume a checkpointed run
# without further checkpointing).  Everything else must match exactly.
_OPERATIONAL_FIELDS = frozenset({"checkpoint_every", "checkpoint_dir", "num_workers"})


def _config_echo(trainer) -> dict:
    """JSON-comparable view of the trajectory-relevant trainer config,
    with the training dtype the trainer took from its parties' features."""
    out = {"dtype": trainer.dtype.name}
    for f in dataclasses.fields(trainer.config):
        if f.name in _OPERATIONAL_FIELDS:
            continue
        v = getattr(trainer.config, f.name)
        if isinstance(v, tuple):
            v = list(v)
        out[f.name] = v
    return out


def checkpoint_path(directory: str, name: str = "trainer") -> str:
    """Canonical checkpoint file inside ``directory``."""
    return os.path.join(directory, f"{name}.ckpt.npz")


def save_trainer_checkpoint(trainer, path: str, next_round: int) -> str:
    """Snapshot ``trainer`` so :func:`load_trainer_checkpoint` can resume
    at ``next_round``.  Returns the written path."""
    tracer = get_tracer()
    with tracer.span("checkpoint.save", round=next_round - 1):
        arrays: Dict[str, np.ndarray] = {}
        opt_meta: List[dict] = []
        rng_states: List[Optional[dict]] = []
        for i, client in enumerate(trainer.clients):
            # The live parameter and Adam moment arrays, not copies:
            # np.savez writes them before this returns, and no optimizer
            # step is pending at the end of a round.
            for k, p in client.model.named_parameters():
                arrays[f"client{i}/model/{k}"] = p.data
            opt_state = client.optimizer.state_dict()
            scalars = {}
            for key, val in opt_state.items():
                if isinstance(val, list):
                    for j, arr in enumerate(val):
                        arrays[f"client{i}/opt/{key}{j}"] = arr
                    scalars[key] = len(val)
                else:
                    scalars[key] = val
            opt_meta.append(scalars)
            rng_states.append(_rng_state(getattr(client.model, "_rng", None)))
        best_states = getattr(trainer, "_best_states", None)
        if best_states is not None:
            # A party kept as its rows of the best global state is written
            # as those rows, the same arrays a copy would have held.
            for i, client in enumerate(trainer.clients):
                for k, v in trainer._best_state(client).items():
                    arrays[f"best{i}/{k}"] = v
        for k, v in trainer.global_state.items():
            arrays[f"global/{k}"] = v
        if trainer._best_global is not None:
            for k, v in trainer._best_global.items():
                arrays[f"best_global/{k}"] = v
        # The async engine's event heap (in-flight reports), model version
        # counter and virtual time go into the metadata: with the global
        # state above, everything a mid-quorum resume needs to replay
        # arrivals bitwise.
        engine = getattr(trainer, "async_engine", None)
        stats = trainer.comm.snapshot()
        meta = {
            "version": CHECKPOINT_VERSION,
            "trainer": trainer.name,
            "seed": trainer.seed,
            "next_round": int(next_round),
            "num_clients": len(trainer.clients),
            "config": _config_echo(trainer),
            "best_val": float(getattr(trainer, "_best_val", -np.inf)),
            "rounds_since_best": int(getattr(trainer, "_rounds_since_best", 0)),
            "has_best": best_states is not None,
            "opt": opt_meta,
            "model_rng": rng_states,
            "async": engine.state_dict() if engine is not None else None,
            "comm": {
                "uplink_bytes": stats.uplink_bytes,
                "downlink_bytes": stats.downlink_bytes,
                "uplink_messages": stats.uplink_messages,
                "downlink_messages": stats.downlink_messages,
                "rounds": stats.rounds,
                "by_kind": stats.by_kind,
            },
            "history": [dataclasses.asdict(r) for r in trainer.history.records],
        }
        out = save_arrays(path, arrays, meta)
    reg = get_registry()
    if reg.enabled:
        reg.counter("checkpoint.saves").inc()
    return out


def load_trainer_checkpoint(trainer, path: str) -> int:
    """Restore ``trainer`` in place from ``path``; returns the next round.

    The trainer must have been constructed with the same parts, config
    and seed as the one that saved the checkpoint — config or topology
    mismatches raise instead of silently resuming a different run.
    """
    tracer = get_tracer()
    with tracer.span("checkpoint.restore"):
        arrays, meta = load_arrays(path)
        if meta.get("version") != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {meta.get('version')!r}")
        if meta["num_clients"] != len(trainer.clients):
            raise ValueError(
                f"checkpoint has {meta['num_clients']} clients, trainer has "
                f"{len(trainer.clients)}"
            )
        if meta["trainer"] != trainer.name:
            raise ValueError(
                f"checkpoint was saved by {meta['trainer']!r}, not {trainer.name!r}"
            )
        echo = _config_echo(trainer)
        if meta["config"] != echo:
            diff = {
                k
                for k in set(meta["config"]) | set(echo)
                if meta["config"].get(k) != echo.get(k)
            }
            raise ValueError(f"checkpoint config mismatch on {sorted(diff)}")

        def prefixed(prefix: str) -> Dict[str, np.ndarray]:
            return {k[len(prefix):]: v for k, v in arrays.items() if k.startswith(prefix)}

        for i, client in enumerate(trainer.clients):
            client.set_state(prefixed(f"client{i}/model/"))
            scalars = meta["opt"][i]
            opt_state: Dict[str, object] = {}
            for key, val in scalars.items():
                prefix_o = f"client{i}/opt/{key}"
                buffers = [
                    arrays[f"{prefix_o}{j}"]
                    for j in range(val if isinstance(val, int) else 0)
                    if f"{prefix_o}{j}" in arrays
                ]
                opt_state[key] = buffers if buffers else val
            client.optimizer.load_state_dict(opt_state)
            _set_rng_state(getattr(client.model, "_rng", None), meta["model_rng"][i])

        if meta["has_best"]:
            trainer._best_states = [prefixed(f"best{i}/") for i in range(len(trainer.clients))]
        else:
            trainer._best_states = None
        trainer.global_state = prefixed("global/")
        trainer._best_global = prefixed("best_global/") or None
        trainer._best_val = meta["best_val"]
        trainer._rounds_since_best = meta["rounds_since_best"]

        comm = meta["comm"]
        trainer.comm.stats = CommStats(
            uplink_bytes=comm["uplink_bytes"],
            downlink_bytes=comm["downlink_bytes"],
            uplink_messages=comm["uplink_messages"],
            downlink_messages=comm["downlink_messages"],
            rounds=comm["rounds"],
            by_kind={k: dict(v) for k, v in comm["by_kind"].items()},
        )
        trainer.history = TrainingHistory(
            records=[RoundRecord(**r) for r in meta["history"]]
        )
        engine = getattr(trainer, "async_engine", None)
        saved_async = meta.get("async")
        if (saved_async is None) != (engine is None):
            # The config echo already rejects engine mismatches; this
            # guards checkpoints from before the field existed.
            raise ValueError("checkpoint round-engine does not match the trainer's")
        if engine is not None:
            engine.load_state_dict(saved_async)
        trainer._start_round = int(meta["next_round"])
    reg = get_registry()
    if reg.enabled:
        reg.counter("checkpoint.restores").inc()
    return trainer._start_round

"""Training CLI: one federated run from the command line.

    python -m repro.train --model fedomd --dataset cora --parties 3 \
        --rounds 200 --scale 0.25 --seed 0 --save-model model.npz

Prints per-run results (accuracy, rounds, traffic) and optionally the
per-round convergence curve; saves the final global model as npz.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import time

import numpy as np

from repro.experiments.configs import paper_resolution
from repro.experiments.runner import MODEL_NAMES, ModeParams, make_trainer
from repro.graphs import DATASET_STATS, load_dataset, louvain_partition
from repro.nn.serialize import save_checkpoint
from repro.obs import cli_session
from repro.reporting import render_series


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m repro.train",
        description="Run one federated node-classification experiment.",
    )
    p.add_argument("--model", choices=MODEL_NAMES, default="fedomd")
    p.add_argument("--dataset", choices=sorted(DATASET_STATS), default="cora")
    p.add_argument("--parties", type=int, default=3)
    p.add_argument("--rounds", type=int, default=200)
    p.add_argument("--patience", type=int, default=200)
    p.add_argument("--hidden", type=int, default=64)
    p.add_argument("--scale", type=float, default=0.25, help="dataset size scale (1.0 = paper)")
    p.add_argument("--resolution", type=float, default=None, help="Louvain resolution (default: paper's per-dataset value)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--alpha", type=float, default=None, help="FedOMD ortho weight")
    p.add_argument("--beta", type=float, default=None, help="FedOMD CMD weight")
    p.add_argument("--num-hidden", type=int, default=None, help="FedOMD hidden layers")
    p.add_argument(
        "--sanitize",
        action="store_true",
        help="arm runtime sanitizers (autograd tripwires, lock probes; see repro.analysis)",
    )
    p.add_argument(
        "--telemetry",
        default=None,
        metavar="PATH",
        help="write a JSONL telemetry trace of the run to PATH",
    )
    p.add_argument(
        "--profile",
        action="store_true",
        help="profile the run: exact FLOP/byte cost model, flamegraph folded "
        "stacks, per-phase RSS high-water; prints the run report on exit",
    )
    p.add_argument(
        "--profile-dir",
        default="results",
        metavar="DIR",
        help="directory for --profile outputs (profile.folded; default results/)",
    )
    p.add_argument("--curve", action="store_true", help="print the convergence sparkline")
    p.add_argument("--save-model", default=None, help="write the final global model (npz)")
    p.add_argument("--verbose", action="store_true")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    session = cli_session(
        args.telemetry,
        args.profile,
        os.path.join(args.profile_dir, "profile.folded"),
        model=args.model,
        dataset=args.dataset,
        seed=args.seed,
    )

    t0 = time.perf_counter()
    with session if session is not None else contextlib.nullcontext():
        graph = load_dataset(args.dataset, seed=args.seed, scale=args.scale)
        resolution = (
            args.resolution if args.resolution is not None else paper_resolution(args.dataset)
        )
        parts = louvain_partition(
            graph, args.parties, np.random.default_rng(args.seed), resolution=resolution
        ).parts
        print(f"{graph.summary()} → {args.parties} parties {[p.num_nodes for p in parts]}")

        params = ModeParams(
            scale=args.scale,
            max_rounds=args.rounds,
            patience=args.patience,
            seeds=1,
            hidden=args.hidden,
        )
        overrides = {}
        for key in ("alpha", "beta"):
            if getattr(args, key) is not None:
                overrides[key] = getattr(args, key)
        if args.num_hidden is not None:
            overrides["num_hidden"] = args.num_hidden
        trainer = make_trainer(
            args.model,
            parts,
            params,
            seed=args.seed,
            fedomd_overrides=overrides or None,
            extra_config={"sanitize": True} if args.sanitize else None,
        )
        history = trainer.run(verbose=args.verbose)
    run_s = time.perf_counter() - t0

    acc = history.final_test_accuracy()
    stats = trainer.comm.stats
    print(
        f"\n{args.model}: test accuracy {100 * acc:.2f}% "
        f"({len(history)} rounds, {run_s:.0f}s)"
    )
    print(
        f"traffic: {stats.uplink_bytes / 1e6:.1f} MB up, "
        f"{stats.downlink_bytes / 1e6:.1f} MB down"
    )
    if args.curve:
        print(render_series("test acc", history.rounds, history.test_accuracies))
    if args.save_model:
        meta = {
            "model": args.model,
            "dataset": args.dataset,
            "parties": args.parties,
            "seed": args.seed,
            "test_accuracy": acc,
            "rounds": len(history),
        }
        path = save_checkpoint(trainer.clients[0].model, args.save_model, meta)
        print(f"saved global model → {path}")
    if args.profile:
        print()
    if session is not None:
        print(session.summary())
    return 0


if __name__ == "__main__":
    sys.exit(main())

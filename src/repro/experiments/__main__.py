"""CLI: ``python -m repro.experiments <name|all> [--mode smoke|quick|full]``.

Telemetry: ``--telemetry out.jsonl`` wraps the run in a
:class:`repro.obs.TelemetrySession` and writes the full event stream
(spans, counters, gauges, histograms) as JSONL on exit.  A saved trace
renders back to a text run report with::

    python -m repro.experiments report out.jsonl
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import time

from repro.experiments.registry import REGISTRY, get_experiment
from repro.experiments.runner import default_out_dir
from repro.obs import cli_session


def _run_experiments(names, mode: str, out_dir: str, extra=None) -> None:
    for name in names:
        fn = get_experiment(name)
        t0 = time.perf_counter()
        result = fn(mode=mode, out_dir=out_dir, **(extra or {}))
        run_s = time.perf_counter() - t0
        print(result.render())
        print(f"[{name}] done in {run_s:.1f}s → {out_dir}/{name}.csv\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        help=f"one of {sorted(REGISTRY)}, 'all', or 'report' to render a saved trace",
    )
    parser.add_argument(
        "trace", nargs="?", default=None, help="JSONL trace path (report subcommand only)"
    )
    parser.add_argument("--mode", choices=["smoke", "quick", "full"], default="quick")
    parser.add_argument("--out", default=None, help="output directory (default results/<mode>)")
    parser.add_argument(
        "--telemetry",
        default=None,
        metavar="PATH",
        help="write a JSONL telemetry trace of the run to PATH",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="profile the run: exact FLOP/byte cost model, flamegraph folded "
        "stacks (<out>/profile.folded), per-phase RSS high-water; prints "
        "the run report on exit (composes with --telemetry for the trace)",
    )
    chaos = parser.add_argument_group(
        "chaos", "fault injection + checkpoint/resume (chaos/loadtest experiments)"
    )
    chaos.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help="fault plan, e.g. 'drop=0.2,straggler=0.1:delay=0.05,crash=0.1'",
    )
    chaos.add_argument(
        "--fault-seed",
        type=int,
        default=None,
        help="seed of the fault plan RNG (default 0)",
    )
    chaos.add_argument(
        "--engine",
        choices=["barrier", "async"],
        default=None,
        help="round engine (chaos experiment; loadtest is always async)",
    )
    chaos.add_argument(
        "--clients",
        type=int,
        default=None,
        metavar="N",
        help="override the client count (loadtest experiment only)",
    )
    chaos.add_argument(
        "--resume",
        default=None,
        metavar="PATH",
        help="resume from a trainer checkpoint (.ckpt.npz)",
    )
    chaos.add_argument(
        "--checkpoint-every",
        type=int,
        default=0,
        metavar="N",
        help="save a resumable checkpoint every N rounds (0 = off)",
    )
    chaos.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help="directory for --checkpoint-every snapshots",
    )
    chaos.add_argument(
        "--sanitize",
        action="store_true",
        help="arm runtime sanitizers (autograd tripwires, lock probes; see repro.analysis)",
    )
    args = parser.parse_args(argv)

    if args.experiment == "report":
        if args.trace is None:
            parser.error("report needs a trace path: ... report out.jsonl")
        from repro.reporting import render_report_file

        print(render_report_file(args.trace))
        return 0
    if args.trace is not None:
        parser.error("a trace path is only valid with the 'report' subcommand")

    names = sorted(REGISTRY) if args.experiment == "all" else [args.experiment]
    out_dir = args.out or default_out_dir(args.mode)

    chaos_flags = {
        "--faults": args.faults,
        "--fault-seed": args.fault_seed,
        "--resume": args.resume,
        "--checkpoint-dir": args.checkpoint_dir,
        "--engine": args.engine,
        "--clients": args.clients,
    }
    if args.checkpoint_every:
        chaos_flags["--checkpoint-every"] = args.checkpoint_every
    if args.sanitize:
        chaos_flags["--sanitize"] = True
    extra = None
    if args.experiment == "chaos":
        if args.clients is not None:
            parser.error("--clients only applies to the 'loadtest' experiment")
        extra = dict(
            faults=args.faults,
            fault_seed=args.fault_seed or 0,
            resume=args.resume,
            checkpoint_every=args.checkpoint_every,
            checkpoint_dir=args.checkpoint_dir,
            sanitize=args.sanitize,
            engine=args.engine or "barrier",
        )
    elif args.experiment == "loadtest":
        loadtest_only = {
            "--resume": args.resume,
            "--checkpoint-dir": args.checkpoint_dir,
            "--engine": args.engine,
        }
        used = [flag for flag, value in loadtest_only.items() if value is not None]
        if used or args.checkpoint_every or args.sanitize:
            bad = used + (["--checkpoint-every"] if args.checkpoint_every else [])
            bad += ["--sanitize"] if args.sanitize else []
            parser.error(f"{', '.join(bad)} do not apply to the 'loadtest' experiment")
        extra = dict(
            faults=args.faults,
            fault_seed=args.fault_seed or 0,
            clients=args.clients,
        )
    else:
        used = [flag for flag, value in chaos_flags.items() if value is not None]
        if used:
            parser.error(
                f"{', '.join(used)} only apply to the 'chaos'/'loadtest' experiments"
            )

    session = cli_session(
        args.telemetry,
        args.profile,
        os.path.join(out_dir, "profile.folded"),
        experiment=args.experiment,
        mode=args.mode,
    )
    with session if session is not None else contextlib.nullcontext():
        _run_experiments(names, args.mode, out_dir, extra)
    if session is not None:
        print(session.summary())
    return 0


if __name__ == "__main__":
    sys.exit(main())

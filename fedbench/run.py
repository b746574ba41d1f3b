"""FedOMD round benchmark: one workload, one seed, one JSON result line.

Usage, from the repository root::

    python3 fedbench/run.py --workload cora-m5 --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the workload untraced and then traced, checks that
both train the same trajectory, and reports the per-layer metrics.  The
last line of standard output is the result object; the lines before it
are the environment fingerprint and, when traced, a per-layer table.
The exit code is 0 when every correctness check passed, 1 when one
failed, and 2 when the program under test cannot be found.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import subprocess
import sys
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Untraced set-ups per ``--trace 0`` run, each in a fresh process;
#: set-up time is their median.
SETUPS = 3
#: Seconds' worth of timed rounds (per ``Workload.rounds_per_second``)
#: the first repeated set-up trains, for the history check.
CHECK_SECONDS = 2.0
SETUP_CHILD_TIMEOUT_S = 120


def _loss_checks(name: str, run) -> List[str]:
    """Every local loss of a party with labelled nodes must be finite.

    A round's recorded loss averages the finite losses of the updates
    that arrived; on the async engine it is NaN by design when every
    arrival came from a party without labelled nodes, so the check is
    made on the per-client losses instead.
    """
    bad = [r for r, c in sorted(run.probe.counts.items()) if c.get("nonfinite_loss")]
    return [f"{name}: non-finite local loss in rounds {bad}"] if bad else []


def _ledger_checks(name: str, run) -> List[str]:
    n = run.probe.updates.unmatched
    return [f"{name}: {n} aggregated client updates match no dispatch"] if n else []


def setup_in_child(workload, seed: int, rounds: int) -> Dict[str, object]:
    """One more untraced set-up of ``workload``, in a fresh process.

    The child trains ``rounds`` rounds and reports its set-up time, the
    digest of its history and any failed check.
    """
    spec = json.dumps({"workload": dataclasses.asdict(workload), "seed": seed, "rounds": rounds})
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-child", spec],
        capture_output=True,
        text=True,
        timeout=SETUP_CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        return {"setup_s": None, "digest": None, "failures": [
            f"set-up child exited {proc.returncode}: {proc.stderr.strip()[-500:]}"
        ]}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _setup_child(spec: str) -> int:
    from fedbench.workloads import Workload, history_digest, run_once

    args = json.loads(spec)
    run = run_once(Workload(**args["workload"]), args["seed"], args["rounds"])
    print(json.dumps({
        "setup_s": run.setup_s,
        "digest": history_digest(run.records),
        "failures": _loss_checks("set-up child", run) + _ledger_checks("set-up child", run),
    }))
    return 0


def measure(workload, seed: int, seconds: float) -> Dict[str, object]:
    """Untraced: the timed run, then ``SETUPS - 1`` set-ups in fresh processes.

    The timed run is the first thing this process does, so the process
    high-water RSS is read after exactly one set-up and run.  Every
    set-up is timed to the same mark, the first timed ``begin_round``.
    The first child trains ``CHECK_SECONDS`` worth of timed rounds and
    the others one, and each history must equal the same prefix of the
    timed run's history bit for bit.
    """
    from fedbench.metrics import end_to_end, peak_rss_mb
    from fedbench.workloads import WARM_ROUNDS, history_digest, run_once

    timed = run_once(workload, seed, WARM_ROUNDS + workload.timed_rounds(seconds))
    rss = peak_rss_mb()
    failures = _loss_checks("timed run", timed) + _ledger_checks("timed run", timed)
    setups = [timed.setup_s]
    check_rounds = min(workload.timed_rounds(CHECK_SECONDS), len(timed.round_walls))
    for i in range(1, SETUPS):
        rounds = WARM_ROUNDS + (check_rounds if i == 1 else 1)
        child = setup_in_child(workload, seed, rounds)
        failures += child["failures"]
        if child["setup_s"] is not None:
            setups.append(child["setup_s"])
        if child["digest"] != history_digest(timed.records[:rounds]):
            failures.append(
                f"a repeated set-up of seed {seed} trained a different history"
                f" over its {rounds} rounds"
            )
    return {
        "failures": failures,
        "attempted": len(timed.round_walls),
        "metrics": end_to_end(setups, timed, rss),
    }


def measure_traced(workload, seed: int, seconds: float) -> Dict[str, object]:
    """Untraced then traced run of the same rounds; per-layer metrics.

    Each of the two runs gets half of ``seconds``, so a traced run takes
    about as long as an untraced one.
    """
    from fedbench.metrics import per_layer, self_time_excess
    from fedbench.probes import EXCHANGE_RTOL
    from fedbench.tracer import Tracer
    from fedbench.workloads import WARM_ROUNDS, history_digest, run_once

    rounds = WARM_ROUNDS + workload.timed_rounds(seconds / 2)
    untraced = run_once(workload, seed, rounds)
    traced = run_once(workload, seed, rounds, tracer=Tracer(), final_acc=True)
    failures = []
    for name, run in (("untraced", untraced), ("traced", traced)):
        failures += _loss_checks(name, run) + _ledger_checks(name, run)
    if history_digest(untraced.records) != history_digest(traced.records):
        failures.append("traced run trained a different history than the untraced run")
    errors = traced.probe.exchange_errors
    if not errors:
        failures.append("no moment exchange ran")
    elif max(errors) > EXCHANGE_RTOL:
        failures.append(
            f"moment exchange differs from pooled moments: rel. error {max(errors):.3e}"
        )
    excess = self_time_excess(traced)
    if excess > 1e-9:
        failures.append(f"self times exceed round wall by {excess:.3e} s")
    return {
        "failures": failures,
        "attempted": len(traced.round_walls),
        "metrics": per_layer(traced, untraced),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"program under test not found: {src}/repro is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [src, ROOT]
    if args.setup_child:
        return _setup_child(args.setup_child)
    for name in ("workload", "seed", "seconds"):
        if getattr(args, name) is None:
            parser.error(f"--{name} is required")
    from fedbench.metrics import fingerprint
    from fedbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    print(json.dumps({
        "fingerprint": fingerprint(),
        "workload": workload.name,
        "seed": args.seed,
        "timed_rounds": workload.timed_rounds(args.seconds / (2 if args.trace else 1)),
    }))
    run = measure_traced if args.trace else measure
    result = run(workload, args.seed, args.seconds)
    for failure in result["failures"]:
        print(f"CHECK FAILED: {failure}")
    if args.trace:
        for name, m in result["metrics"].items():
            print(f"{name:36s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({
        "correct": not result["failures"],
        "attempted": result["attempted"],
        "failed": len(result["failures"]),
        "metrics": result["metrics"],
    }))
    return 0 if not result["failures"] else 1


if __name__ == "__main__":
    sys.exit(main())

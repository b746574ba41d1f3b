"""End-to-end and per-layer metrics, and the environment fingerprint."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import resource
import statistics
from typing import Dict, List

import numpy as np

from fedbench.probes import PHASES
from fedbench.tracer import analyze
from fedbench.workloads import WARM_ROUNDS, RunResult

GNN_LAYERS = ("conv_in", "ortho", "conv_out")


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


def percentile(values: List[float], q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


def failed_ratio(run: RunResult) -> float:
    """Failed over settled client updates of the timed rounds.

    Settled updates are those dispatched in a timed round whose fate is
    known (see ``probes.UpdateLedger``); updates still in flight when the
    run ends are left out of both counts.
    """
    u = run.updates
    return u["failed"] / (u["reached"] + u["failed"])


def peak_rss_mb() -> float:
    """Process high-water resident set size so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(
    setups: List[float], timed: RunResult, rss_mb: float
) -> Dict[str, Dict[str, object]]:
    """Metrics of an untraced measurement: set-up over ``setups``, the rest from ``timed``."""
    n = len(timed.round_walls)
    return {
        "setup_s": metric(statistics.median(setups), "s"),
        "round_s.p50": metric(percentile(timed.round_walls, 50), "s"),
        "round_s.p90": metric(percentile(timed.round_walls, 90), "s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
        "comm_mb_per_round": metric(timed.comm.total_bytes / n / 1e6, "MB"),
        "client_updates.delivered_ratio": metric(1.0 - failed_ratio(timed), "ratio"),
    }


def per_layer(traced: RunResult, untraced: RunResult) -> Dict[str, Dict[str, object]]:
    """Per-layer metrics of a traced run (``_s``: self seconds per timed round)."""
    rounds = [s for r, s in analyze(traced.probe.tracer).items() if r >= WARM_ROUNDS]
    n = len(rounds)

    def total(field: str, match) -> float:
        return sum(v for s in rounds for k, v in getattr(s, field).items() if match(k))

    def per_round(field: str, match) -> float:
        return total(field, match) / n

    def named(*names):
        return lambda k: k in names

    def gflops(match) -> float:
        seconds = total("thread_s", match)
        return total("flops", match) / seconds / 1e9 if seconds > 0 else 0.0

    out = {
        "graphs.load_dataset_s": metric(traced.load_s, "s"),
        "graphs.partition_s": metric(traced.partition_s, "s"),
        "graphs.x_mb": metric(traced.x_mb, "MB"),
    }
    for layer in GNN_LAYERS:
        prefix = f"gnn.{layer}."
        for d in ("fwd", "bwd"):
            out[f"{prefix}{d}_s"] = metric(
                per_round("self_s", lambda k: k.startswith(prefix) and k.endswith(d)), "s"
            )
    out["gnn.conv_in.gflops"] = metric(gflops(lambda k: k.startswith("gnn.conv_in.")), "GFLOP/s")
    is_spmm = lambda k: k.startswith("gnn.") and ".spmm." in k  # noqa: E731
    for d in ("fwd", "bwd"):
        out[f"gnn.spmm.{d}_s"] = metric(
            per_round("self_s", lambda k: is_spmm(k) and k.endswith(d)), "s"
        )
    out["gnn.spmm.gflops"] = metric(gflops(is_spmm), "GFLOP/s")
    for name in (
        "autograd.backward",
        "autograd.power.fwd",
        "autograd.power.bwd",
        "nn.adam_step",
        "core.cmd_loss",
    ):
        out[f"{name}_s"] = metric(per_round("self_s", named(name)), "s")
    forward = per_round("incl_s", named("core.exchange.begin_round")) - per_round(
        "incl_s", named("core.exchange.run", "bench.check")
    )
    out["core.exchange.forward_s"] = metric(forward, "s")
    out["core.exchange.run_s"] = metric(per_round("self_s", named("core.exchange.run")), "s")
    out["core.exchange.stats_bytes"] = metric(traced.counts.get("stats_bytes", 0), "B")
    out["federated.train_step_s"] = metric(per_round("self_s", named("federated.train_step")), "s")
    out["federated.train_step_s.max"] = metric(
        sum(s.max_s["federated.train_step"] for s in rounds) / n, "s"
    )
    out["federated.evaluate_s"] = metric(per_round("self_s", named("federated.evaluate")), "s")
    out["federated.aggregate_s"] = metric(
        per_round("self_s", lambda k: k.startswith("federated.aggregate.")), "s"
    )
    wall = sum(s.wall for s in rounds) / n
    out["federated.engine_s"] = metric(wall - per_round("incl_s", named(*PHASES)), "s")
    mapped = total("thread_s", named("federated.executor.map"))
    out["federated.executor.busy_ratio"] = metric(
        total("thread_s", named("federated.executor.task")) / mapped if mapped > 0 else 0.0,
        "ratio",
    )
    comm = traced.comm
    out["federated.comm.uplink_bytes"] = metric(comm.uplink_bytes, "B")
    out["federated.comm.downlink_bytes"] = metric(comm.downlink_bytes, "B")
    out["federated.comm.messages"] = metric(
        comm.uplink_messages + comm.downlink_messages, "count"
    )
    updates = traced.updates
    for key in ("dispatched", "late", "discarded", "failed"):
        out[f"federated.updates.{key}"] = metric(updates[key], "count")
    out["federated.updates.in_flight"] = metric(updates["open"], "count")
    out["client_updates.failed_ratio"] = metric(failed_ratio(traced), "ratio")
    out["obs.calls"] = metric(total("calls", named("obs")), "count")
    out["obs.busy_s"] = metric(per_round("self_s", named("obs")), "s")
    out["bench.check_s"] = metric(per_round("self_s", named("bench.check")), "s")
    # The exchange check is benchmark work, reported above as bench.check_s.
    traced_walls = [s.wall - s.self_s["bench.check"] for s in rounds]
    out["bench.trace_overhead"] = metric(
        percentile(traced_walls, 50) / percentile(untraced.round_walls, 50), "ratio"
    )
    out["final_test_acc"] = metric(traced.final_test_acc, "ratio")
    return out


def self_time_excess(traced: RunResult) -> float:
    """Largest amount by which a round's summed self times exceed its wall."""
    rounds = analyze(traced.probe.tracer).values()
    return max(sum(s.self_s.values()) - s.wall for s in rounds)


def _openblas_threads():
    """Thread count of numpy's bundled OpenBLAS, read through its own symbol."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "libscipy_openblas*"))):
        try:
            fn = ctypes.CDLL(path).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.argtypes = []
        fn.restype = ctypes.c_int
        return int(fn())
    return None


def fingerprint() -> Dict[str, object]:
    """What the numbers ran under: CPUs, versions, BLAS and kernel backend."""
    import scipy

    from repro.autograd import get_backend

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _openblas_threads(),
        "kernel_backend": get_backend().name,
    }

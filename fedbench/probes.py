"""Wrappers around the program's public functions, installed from outside.

:class:`Probe` swaps module and class attributes of ``repro`` for timed
or counting wrappers and restores the originals on :meth:`uninstall`.
Every wrapper calls the original with the same arguments and returns
its result unchanged, so a probed run trains bit for bit like an
unprobed one (the benchmark checks this on every traced run).

Two levels:

* rounds only (``tracer=None``) — the untraced end-to-end run.  Marks
  each ``begin_round`` call and counts client updates dispatched and
  aggregated; a handful of cheap calls per round.
* full (a :class:`~tracer.Tracer`) — additionally one span per call of
  every wrapped function in ``gnn``, ``autograd``, ``nn``, ``core``,
  ``federated`` and ``obs``, the FLOP counts of the ``gnn`` products,
  the statistic bytes of each exchange, and a check of every exchange
  result against the centrally pooled moments.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

import numpy as np

from fedbench.tracer import Tracer

#: Spans whose inclusive time makes up a round's phases; the rest of the
#: round wall is engine self time.
PHASES = (
    "core.exchange.begin_round",
    "federated.train_step",
    "federated.evaluate",
    "federated.aggregate.fedavg",
    "federated.aggregate.fold_arrivals",
    "federated.aggregate.set_state",
)

#: Relative error allowed between an exchange result and the pooled moments.
EXCHANGE_RTOL = 1e-10


class UpdateLedger:
    """The fate of every client update, kept by the round that dispatched it.

    An update is dispatched when its client is among the round's
    participants at ``begin_round``.  It is *reached* when an aggregate
    takes it: ``fedavg`` on the barrier engine, ``fold_arrivals``'s
    ``kept`` on the async one.  It is *failed* when it never gets there:
    discarded as stale or quarantined at the fold, skipped by the NaN
    guard, or it never arrives (a dropped or crashed update, found out
    when its client is dispatched again, or, on the barrier engine, when
    its round aggregates without it).  An update still in flight when the
    run ends has no fate yet and stays ``open``.  An aggregated update
    that no dispatch accounts for is counted as ``unmatched``; the
    benchmark fails its run if there is one.
    """

    FATES = ("reached", "failed", "late", "discarded", "quarantined")

    def __init__(self) -> None:
        #: cid -> dispatch round of its unresolved update
        self.open: Dict[int, int] = {}
        self.unmatched = 0
        self._nan_skipped: set = set()
        self.by_round: Dict[int, Dict[str, int]] = defaultdict(lambda: defaultdict(int))

    def dispatch(self, round_idx: int, cids) -> None:
        for cid in cids:
            if cid in self.open:
                self._resolve(cid, "failed")
            self.open[cid] = round_idx
            self.by_round[round_idx]["dispatched"] += 1

    def nan_skipped(self, cid: int) -> None:
        self._nan_skipped.add(cid)

    def _resolve(self, cid: int, fate: str, *extra: str) -> None:
        if cid not in self.open:
            self.unmatched += 1
            return
        round_idx = self.open.pop(cid)
        if fate == "reached" and cid in self._nan_skipped:
            fate = "failed"
        self._nan_skipped.discard(cid)
        for key in (fate,) + extra:
            self.by_round[round_idx][key] += 1

    def fold(self, result) -> None:
        """Async: resolve the arrivals ``fold_arrivals`` judged."""
        for cid, stale in result.kept:
            self._resolve(cid, "reached", *(("late",) if stale > 0 else ()))
        for cid in result.discarded:
            self._resolve(cid, "failed", "discarded")
        for cid in result.quarantined:
            self._resolve(cid, "failed", "quarantined")

    def barrier_aggregate(self, round_idx: int, reached: int) -> None:
        """Barrier: ``reached`` of the round's updates entered ``fedavg``."""
        cids = sorted(c for c, r in self.open.items() if r == round_idx)
        for i, cid in enumerate(cids):
            self._resolve(cid, "reached" if i < reached else "failed")

    def totals(self, from_round: int) -> Dict[str, int]:
        """Counts over the updates dispatched in ``from_round`` and later."""
        out = {key: 0 for key in ("dispatched",) + self.FATES}
        for round_idx, counts in self.by_round.items():
            if round_idx >= from_round:
                for key, n in counts.items():
                    out[key] += n
        out["open"] = sum(1 for r in self.open.values() if r >= from_round)
        return out


def exchange_error(client_hidden, result, orders) -> float:
    """Largest normwise relative error of ``result`` against pooled moments."""
    from repro.core.exchange import pooled_central_moments

    ref = pooled_central_moments(client_hidden, orders)
    worst = 0.0
    pairs = list(zip(result.means, ref.means))
    for got_l, ref_l in zip(result.moments, ref.moments):
        pairs.extend(zip(got_l, ref_l))
    for got, want in pairs:
        scale = float(np.max(np.abs(want)))
        err = float(np.max(np.abs(np.asarray(got) - want)))
        worst = max(worst, err / scale if scale > 0 else err)
    return worst


class Probe:
    """Installs the wrappers; collects round marks, counts and spans.

    ``timed_from`` is the first timed round: the communicator is
    snapshotted when it begins, so traffic can be taken over the timed
    rounds only.
    """

    def __init__(self, tracer: Optional[Tracer] = None, timed_from: int = 0) -> None:
        self.tracer = tracer
        self.timed_from = timed_from
        self.round = -1
        self.round_marks: List[float] = []
        self.comm_at_timed = None
        self.counts: Dict[int, Dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.updates = UpdateLedger()
        self.exchange_errors: List[float] = []
        self._saved: List[tuple] = []
        self._layer = threading.local()

    # ------------------------------------------------------------------
    def _patch(self, owner, name: str, make: Callable) -> None:
        real = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        self._saved.append((owner, name, real))
        setattr(owner, name, make(real))

    def uninstall(self) -> None:
        for owner, name, real in reversed(self._saved):
            setattr(owner, name, real)
        self._saved.clear()
        if self.tracer is not None:
            self.tracer.end_round()

    def __enter__(self) -> "Probe":
        try:
            self.install()
        except BaseException:
            self.uninstall()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def count(self, key: str, n: int = 1) -> None:
        self.counts[self.round][key] += n

    # ------------------------------------------------------------------
    def install(self) -> None:
        from repro.core.fedomd import FedOMDTrainer
        from repro.federated import async_engine
        from repro.federated import trainer as trainer_mod
        from repro.federated.client import Client

        tr = self.tracer
        probe = self

        def begin_round(real):
            def wrapped(trainer, round_idx):
                probe.round_marks.append(time.perf_counter())
                if tr is not None:
                    tr.begin_round(round_idx)
                probe.round = round_idx
                if round_idx == probe.timed_from:
                    probe.comm_at_timed = trainer.comm.snapshot()
                probe.updates.dispatch(round_idx, [c.cid for c in trainer.participating_clients()])
                if tr is None:
                    return real(trainer, round_idx)
                span = tr.open("core.exchange.begin_round")
                try:
                    return real(trainer, round_idx)
                finally:
                    tr.close(span)

            return wrapped

        def fedavg(real):
            def wrapped(states, weights=None):
                probe.updates.barrier_aggregate(probe.round, len(states))
                return probe._timed("federated.aggregate.fedavg", real, states, weights)

            return wrapped

        def fold_arrivals(real):
            def wrapped(arrivals, *args, **kwargs):
                result = probe._timed(
                    "federated.aggregate.fold_arrivals", real, arrivals, *args, **kwargs
                )
                probe.updates.fold(result)
                return result

            return wrapped

        def train_step(real):
            def wrapped(client, loss_fn, nan_guard=False):
                value = probe._timed("federated.train_step", real, client, loss_fn, nan_guard)
                # Parties without labelled nodes return NaN without a step.
                if not np.isfinite(value) and client.has_train_nodes():
                    probe.count("nonfinite_loss")
                    probe.updates.nan_skipped(client.cid)
                return value

            return wrapped

        self._patch(FedOMDTrainer, "begin_round", begin_round)
        self._patch(trainer_mod, "fedavg", fedavg)
        self._patch(async_engine, "fold_arrivals", fold_arrivals)
        self._patch(Client, "train_step", train_step)
        if tr is not None:
            self._install_spans(tr)

    def _timed(self, name: str, real, *args, **kwargs):
        tr = self.tracer
        if tr is None:
            return real(*args, **kwargs)
        span = tr.open(name)
        try:
            return real(*args, **kwargs)
        finally:
            tr.close(span)

    def _spanned(self, name: str):
        def make(real):
            def wrapped(*args, **kwargs):
                return self._timed(name, real, *args, **kwargs)

            return wrapped

        return make

    # ------------------------------------------------------------------
    def _install_spans(self, tr: Tracer) -> None:
        from repro.autograd import ops_basic
        from repro.autograd.signatures import matmul_flops, spmm_flops
        from repro.autograd.tensor import Tensor
        from repro.core import fedomd
        from repro.core.exchange import MomentExchange
        from repro.federated.client import Client
        from repro.federated.executor import ClientExecutor
        from repro.gnn import gcn_conv, ortho
        from repro.nn.optim import Adam
        from repro.obs import metrics, trace

        probe = self
        spanned = self._spanned

        self._patch(Client, "evaluate", spanned("federated.evaluate"))
        self._patch(Client, "set_state", spanned("federated.aggregate.set_state"))
        self._patch(Tensor, "backward", spanned("autograd.backward"))
        self._patch(Adam, "step", spanned("nn.adam_step"))
        self._patch(fedomd, "layerwise_cmd", spanned("core.cmd_loss"))

        def exchange_run(real):
            def wrapped(exchange, client_hidden, client_counts, client_ids=None):
                check = tr.open("bench.check")
                before = exchange.comm.snapshot()
                tr.close(check)
                result = probe._timed(
                    "core.exchange.run", real, exchange, client_hidden, client_counts, client_ids
                )
                check = tr.open("bench.check")
                try:
                    moved = exchange.comm.snapshot() - before
                    probe.count("stats_bytes", moved.total_bytes)
                    probe.exchange_errors.append(
                        exchange_error(client_hidden, result, exchange.orders)
                    )
                finally:
                    tr.close(check)
                return result

            return wrapped

        self._patch(MomentExchange, "run", exchange_run)

        def executor_map(real):
            def wrapped(executor, fn, items, span=None, attrs=None):
                outer = tr.open("federated.executor.map")
                tr.push_map(outer)

                def task(item):
                    inner = tr.open("federated.executor.task", parent=outer)
                    try:
                        return fn(item)
                    finally:
                        tr.close(inner)

                try:
                    return real(executor, task, items, span=span, attrs=attrs)
                finally:
                    tr.pop_map()
                    tr.close(outer)

            return wrapped

        self._patch(ClientExecutor, "map", executor_map)

        # ---- gnn: which layer a product belongs to -------------------
        def layer_forward(real):
            def wrapped(module, s_norm, z):
                name = getattr(module, "_obs_name", None) or type(module).__name__
                prev = getattr(probe._layer, "name", None)
                probe._layer.name = "ortho" if name.startswith("ortho") else name
                try:
                    return real(module, s_norm, z)
                finally:
                    probe._layer.name = prev

            return wrapped

        self._patch(gcn_conv.GCNConv, "forward", layer_forward)
        self._patch(ortho.OrthoConv, "forward", layer_forward)

        def timed_op(prefix: Callable[[], str], fwd_flops, bwd_flops):
            """Span the forward call and the backward closure it returns."""

            def make(real):
                def wrapped(a, b):
                    name = prefix()
                    span = tr.open(name + ".fwd")
                    try:
                        out = real(a, b)
                    finally:
                        tr.close(span)
                    span.flops = fwd_flops(a, b)
                    backward = out._backward
                    if backward is not None:
                        flops = bwd_flops(a, b, span.flops)

                        def timed_backward(grad):
                            inner = tr.open(name + ".bwd")
                            inner.flops = flops
                            try:
                                backward(grad)
                            finally:
                                tr.close(inner)

                        out._backward = timed_backward
                    return out

                return wrapped

            return make

        def needs_grad(x) -> int:
            return int(bool(getattr(x, "requires_grad", False)))

        def matmul_fwd(a, b):
            (m, k), n = a.shape, b.shape[1]
            return matmul_flops(m, k, n)

        def matmul_bwd(a, b, fwd):
            return fwd * (needs_grad(a) + needs_grad(b))

        def spmm_fwd(s, x):
            return spmm_flops(s.nnz, x.shape[1])

        def spmm_bwd(s, x, fwd):
            return fwd * needs_grad(x)

        def layer_prefix(op: str) -> Callable[[], str]:
            return lambda: f"gnn.{getattr(probe._layer, 'name', None) or 'other'}.{op}"

        for module in (gcn_conv, ortho):
            self._patch(module, "matmul", timed_op(layer_prefix("matmul"), matmul_fwd, matmul_bwd))
            self._patch(module, "spmm", timed_op(layer_prefix("spmm"), spmm_fwd, spmm_bwd))
        self._patch(
            ops_basic,
            "power",
            timed_op(lambda: "autograd.power", lambda a, e: 0, lambda a, e, f: 0),
        )

        # ---- obs: telemetry registry and tracer calls ----------------
        for cls in (metrics.MetricsRegistry, metrics.NullMetricsRegistry):
            for name in ("counter", "gauge", "histogram"):
                self._patch(cls, name, spanned("obs"))
        for cls in (trace.Tracer, trace.NullTracer):
            self._patch(cls, "span", spanned("obs"))
        for name in ("__enter__", "__exit__"):
            self._patch(trace.Span, name, spanned("obs"))

"""Sparse-kernel substrate bench: graph size × model.

Times one full training step (forward + backward + Adam update) for the
propagation-heavy models on synthetic graphs of increasing size, and
times the backward-path SpMM in isolation against the pre-substrate
behaviour (rebuilding ``S.T.tocsr()`` on every backward — the
transpose-cache bug this substrate fixed).

Results are gated against this scale's entry of the snapshot
``BENCH_kernels.json`` at the repo root before they overwrite it
(``benchmarks/snapshot.py``); the other scale's entry is kept.  The
cached-reverse speedup is asserted (``>= 1.3x``) only at full scale: on
the small smoke graph the O(nnz) conversion is microseconds and the
ratio is runner noise, so the smoke gate leaves it out too.

Scale knob: ``REPRO_BENCH_KERNELS_SCALE=smoke`` (CI) benches only the
smallest graph; the default ``full`` runs the whole size ladder.
"""

import os
import time

import numpy as np
import scipy.sparse as sp

from repro.autograd import spmm
from repro.autograd.tensor import Tensor
from repro.gnn import GCN, SAGE, OrthoGCN
from repro.graphs import Graph
from repro.graphs.csr import CSRMatrix
from repro.nn import Adam, cross_entropy

from benchmarks.snapshot import gate_snapshot

SCALE = os.environ.get("REPRO_BENCH_KERNELS_SCALE", "full")
SIZES = {"smoke": [2000], "full": [2000, 8000, 30000]}[SCALE]
AVG_DEGREE = 12
FEATURES = 32
CLASSES = 7
HIDDEN = 16
MODELS = {"gcn": GCN, "ortho_gcn": OrthoGCN, "sage": SAGE}
MIN_CACHED_REVERSE_SPEEDUP = 1.3


def _synthetic_graph(n, seed):
    """Random symmetric graph with ~AVG_DEGREE neighbours per node.

    Built from raw COO index draws: ``sp.random`` samples indices over
    the full n² space and is prohibitively slow at n=30000.
    """
    rng = np.random.default_rng(seed)
    half = (AVG_DEGREE * n) // 2
    rows = rng.integers(0, n, half)
    cols = rng.integers(0, n, half)
    keep = rows != cols
    a = sp.coo_matrix(
        (np.ones(keep.sum()), (rows[keep], cols[keep])), shape=(n, n)
    ).tocsr()
    a = a + a.T
    a.data[:] = 1.0
    return Graph(
        x=rng.standard_normal((n, FEATURES)),
        adj=a,
        y=rng.integers(0, CLASSES, n),
        num_classes=CLASSES,
        train_mask=np.ones(n, dtype=bool),
    )


def _best_of(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _step_time(model_cls, graph, steps=3):
    model = model_cls(
        graph.num_features,
        graph.num_classes,
        hidden=HIDDEN,
        rng=np.random.default_rng(0),
    )
    opt = Adam(model.parameters(), lr=0.01)

    def one_step():
        opt.zero_grad()
        cross_entropy(model(graph), graph.y, graph.train_mask).backward()
        opt.step()

    one_step()  # warm-up: builds s_op / mean_op and their reverse-CSR
    return _best_of(one_step, repeats=steps)


def _bench_model_matrix():
    rows = []
    for n in SIZES:
        graph = _synthetic_graph(n, seed=n)
        for model_name, model_cls in MODELS.items():
            rows.append(
                {
                    "nodes": n,
                    "edges": int(graph.adj.nnz // 2),
                    "model": model_name,
                    "step_s": round(_step_time(model_cls, graph), 6),
                }
            )
    return rows


def _bench_backward_speedup(n):
    """Cached reverse-CSR vs per-backward transpose rebuild (the old bug).

    Uses hidden width 16 — the regime the propagation layers run in,
    where the O(nnz) ``tocsr`` conversion dominates the O(nnz·d) SpMM.
    """
    graph = _synthetic_graph(n, seed=n)
    s = graph.s_norm
    op = CSRMatrix.from_scipy(s)
    grad = np.random.default_rng(1).standard_normal((n, HIDDEN))

    def legacy():
        for _ in range(5):
            s.T.tocsr() @ grad  # what every backward paid pre-fix

    def cached():
        for _ in range(5):
            op.rev_matmul(grad)

    cached()  # warm-up builds the reverse once
    t_legacy = _best_of(legacy, repeats=5)
    t_cached = _best_of(cached, repeats=5)
    return {
        "nodes": n,
        "hidden": HIDDEN,
        "legacy_rebuild_s": round(t_legacy, 6),
        "cached_reverse_s": round(t_cached, 6),
        "speedup": round(t_legacy / max(t_cached, 1e-12), 4),
    }


def test_bench_kernel_substrate():
    matrix = _bench_model_matrix()
    speedup = _bench_backward_speedup(max(SIZES))

    for row in matrix:
        print(
            f"\n[kernel bench] n={row['nodes']:>6} "
            f"{row['model']:<9} step {row['step_s'] * 1e3:8.2f} ms"
        )
    print(
        f"\n[kernel bench] backward n={speedup['nodes']} d={speedup['hidden']}: "
        f"rebuild {speedup['legacy_rebuild_s'] * 1e3:.2f} ms vs cached "
        f"{speedup['cached_reverse_s'] * 1e3:.2f} ms -> {speedup['speedup']}x"
    )

    payload = {
        "scale": SCALE,
        "avg_degree": AVG_DEGREE,
        "hidden": HIDDEN,
        "model_matrix": matrix,
        "backward_transpose_cache": speedup,
    }
    # Per-mode keys carry the mode as their first path component.
    smoke_noise = ("smoke.backward_transpose_cache.speedup",) if SCALE == "smoke" else ()
    gate_snapshot(
        "BENCH_kernels.json", payload, min_base=0.005, mode=SCALE, skip=smoke_noise
    )

    if SCALE == "full":
        assert speedup["speedup"] >= MIN_CACHED_REVERSE_SPEEDUP, (
            f"cached reverse-CSR only {speedup['speedup']}x faster than "
            f"per-backward rebuild (need >= {MIN_CACHED_REVERSE_SPEEDUP}x)"
        )


def test_bench_spmm_autograd_roundtrip():
    """Fused spmm through the container: small sanity bench, any scale."""
    graph = _synthetic_graph(min(SIZES), seed=7)
    op = graph.s_op
    x_data = np.random.default_rng(2).standard_normal((graph.num_nodes, HIDDEN))

    def roundtrip():
        x = Tensor(x_data, requires_grad=True)
        spmm(op, x).sum().backward()

    roundtrip()
    t = _best_of(roundtrip, repeats=3)
    print(f"\n[kernel bench] spmm fwd+bwd n={graph.num_nodes}: {t * 1e3:.2f} ms")
    assert t < 60.0

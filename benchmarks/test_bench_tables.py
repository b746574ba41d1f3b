"""One benchmark per table of the paper (smoke-scale regeneration).

Each bench executes the exact experiment module the quick/full modes
use — ``pedantic`` single-pass timing, because an experiment is a
macro-benchmark, not a microsecond kernel.
"""

import numpy as np

from repro.experiments import get_experiment
from repro.experiments.runner import MODE_PARAMS, make_trainer
from repro.graphs import load_dataset, louvain_partition


def _run_experiment(benchmark, name, bench_out, **kw):
    result = benchmark.pedantic(
        lambda: get_experiment(name)(mode="smoke", out_dir=bench_out, **kw),
        rounds=1,
        iterations=1,
    )
    assert result.rows, f"{name} produced no rows"
    print()
    print(result.render())
    return result


def test_bench_table2_dataset_stats(benchmark, bench_out):
    res = _run_experiment(benchmark, "table2", bench_out)
    assert len(res.rows) == 5  # five datasets


def _weight_bytes(trainer) -> int:
    """Bytes of every party's parameters, as each party holds them."""
    return sum(p.data.nbytes for c in trainer.clients for p in c.model.parameters())


def test_bench_table3_cost_accounting(benchmark, bench_out):
    res = _run_experiment(benchmark, "table3", bench_out)
    uplink = {r[0]: int(r[4]) for r in res.rows}
    # Rebuild the experiment's partition to price its uplink exactly.
    params = MODE_PARAMS["smoke"]
    g = load_dataset("cora", seed=0, scale=params.scale)
    parts = louvain_partition(g, 3, np.random.default_rng(0)).parts
    fedgcn = make_trainer("fedgcn", parts, params, seed=0)
    fedomd = make_trainer("fedomd", parts, params, seed=0)
    # Each party uploads its means (L·d_h + 1 floats: the +1 is its node
    # count) and its K central moments (L·d_h·K + 1) once per round.
    m, d_h = len(parts), fedomd.config.hidden
    layers, k = fedomd.omd_config.num_hidden, len(fedomd.omd_config.orders)
    moments = m * ((layers * d_h + 1) + (layers * d_h * k + 1)) * 8
    # LocGCN moves no bytes; FedGCN ships every party's full model;
    # FedOMD ships only the input-weight rows each party reads, plus
    # the moment payload, which keeps it below FedGCN.
    assert uplink["locgcn"] == 0
    assert uplink["fedgcn"] == _weight_bytes(fedgcn)
    assert uplink["fedomd"] == _weight_bytes(fedomd) + moments
    assert uplink["fedomd"] < uplink["fedgcn"]


def test_bench_table4_main_results_slice(benchmark, bench_out):
    # Smoke slice: one dataset, two party counts, all eight models.
    res = _run_experiment(
        benchmark, "table4", bench_out, datasets=["cora"], parties=[3, 5]
    )
    assert len(res.rows) == 8


def test_bench_table5_many_parties(benchmark, bench_out):
    res = _run_experiment(
        benchmark, "table5", bench_out, parties=[20], models=["fedgcn", "fedomd"]
    )
    assert len(res.rows) == 2


def test_bench_table6_ablation(benchmark, bench_out):
    res = _run_experiment(
        benchmark, "table6", bench_out, datasets=["cora"], parties=[3]
    )
    assert len(res.rows) == 3  # ortho-only / cmd-only / both


def test_bench_table7_depth(benchmark, bench_out):
    res = _run_experiment(
        benchmark, "table7", bench_out, datasets=["computer"], parties=[3], depths=[2, 6]
    )
    # 2 depths + the FedGCN reference row.
    assert len(res.rows) == 3

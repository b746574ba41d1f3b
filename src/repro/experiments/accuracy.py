"""The FedOMD accuracy gate: a multi-seed pass/fail check of Table 4's claim.

FedOMD against FedGCN (the federated baseline) and LocGCN (the local
reference) on the Cora and Citeseer twins, M ∈ {3, 5}, over a fixed set
of seeds.  Each seed regenerates the twin and the Louvain cut, and all
three methods train on the same parts, so the per-seed accuracies pair.

For every (dataset, M) cell the gate prints each method's mean ± std
over the seeds, the paired per-seed difference ``d_s = acc_FedOMD(s) −
acc_FedGCN(s)`` against the federated baseline, and a verdict::

    PASS  iff  mean(d) ≥ −tol,   tol = t_{0.95, n−1} · sd(d) / √n

``tol`` is the one-sided 95% half-width of the mean paired difference,
taken from the cell's own measured seed spread (``sd`` with n − 1
degrees of freedom).  A cell fails only when FedOMD is below FedGCN
by more than its seeds' noise explains: a one-sided paired t test at
the 5% level.  Pairing removes the spread a seed's twin and cut put on
every method alike, which is most of it (the methods' own stds are
6–13 points on 3 seeds; see EXPERIMENTS.md).

Protocols (``--mode``): ``full`` is the gate — full-size twins, 5
seeds, 300 rounds, patience 200.  ``smoke`` (scale 0.12, 2 seeds, 4
rounds) only proves the command runs.  Every run is deterministic per
seed, so re-running on the same tree reproduces the result file.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.experiments.configs import paper_resolution
from repro.experiments.registry import register
from repro.experiments.runner import ExperimentResult, ModeParams, run_cell
from repro.reporting import format_acc

GATE_DATASETS = ("cora", "citeseer")
GATE_PARTIES = (3, 5)
#: FedOMD, the federated baseline it must match, and (for reference)
#: local training, which a federated method should beat.
METHODS = ("fedomd", "fedgcn", "locgcn")
#: One-sided confidence level of the tolerance.
CONFIDENCE = 0.95

GATE_PARAMS: Dict[str, ModeParams] = {
    "smoke": ModeParams(scale=0.12, max_rounds=4, patience=200, seeds=2, hidden=32),
    "quick": ModeParams(scale=0.5, max_rounds=150, patience=200, seeds=3, hidden=64),
    "full": ModeParams(scale=1.0, max_rounds=300, patience=200, seeds=5, hidden=64),
}


def tolerance(diffs: Sequence[float]) -> float:
    """One-sided ``CONFIDENCE`` half-width of the mean of ``diffs``."""
    # Imported here: scipy.stats costs ~50 MB of RSS, and every user of
    # repro.experiments (the benchmark included) imports this module.
    from scipy import stats

    d = np.asarray(diffs, dtype=np.float64)
    if d.size < 2:
        raise ValueError("the tolerance needs at least two seeds")
    sem = float(np.std(d, ddof=1)) / np.sqrt(d.size)
    return float(stats.t.ppf(CONFIDENCE, d.size - 1)) * sem


def verdict(diffs: Sequence[float]) -> tuple:
    """``(passed, mean difference, tolerance)`` of one cell."""
    tol = tolerance(diffs)
    mean = float(np.mean(diffs))
    return mean >= -tol, mean, tol


def _per_seed(values: Sequence[float]) -> str:
    return " / ".join(f"{v:.6f}" for v in values)


@register("fedomd-accuracy")
def run(mode: str = "full", out_dir: Optional[str] = None) -> ExperimentResult:
    params = GATE_PARAMS[mode]
    seeds = list(range(params.seeds))
    res = ExperimentResult(
        name="fedomd-accuracy",
        headers=["Dataset", "M", "Method", "Mean (±std) %", "Per seed", "Verdict"],
        meta={
            "mode": mode,
            "seeds": ",".join(map(str, seeds)),
            "scale": str(params.scale),
            "rounds": str(params.max_rounds),
            "patience": str(params.patience),
        },
    )
    for ds in GATE_DATASETS:
        resolution = paper_resolution(ds)
        for m in GATE_PARTIES:
            cache: dict = {}
            accs: Dict[str, List[float]] = {name: [] for name in METHODS}
            for seed in seeds:
                for name in METHODS:
                    acc, _, _ = run_cell(
                        name, ds, m, params, seeds=[seed], resolution=resolution,
                        partition_cache=cache,
                    )
                    accs[name].append(acc)
            for name in METHODS:
                res.add(
                    ds, m, name,
                    format_acc(float(np.mean(accs[name])), float(np.std(accs[name]))),
                    _per_seed(accs[name]), "",
                )
            diffs = [a - b for a, b in zip(accs["fedomd"], accs["fedgcn"])]
            passed, mean, tol = verdict(diffs)
            res.add(
                ds, m, "fedomd - fedgcn",
                format_acc(mean, float(np.std(diffs))),
                _per_seed(diffs),
                f"{'PASS' if passed else 'FAIL'}: mean {mean:+.4f}, tol {tol:.4f}",
            )
    if out_dir:
        res.save(out_dir)
    return res

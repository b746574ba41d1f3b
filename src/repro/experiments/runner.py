"""Shared experiment machinery: model factory, cell runner, result record.

One "cell" = (model, dataset, party count, seed) → final test accuracy,
matching how every table in the paper is populated.  ``run_cell``
averages cells over seeds (the paper averages 5 repetitions).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.baselines import ALL_BASELINES
from repro.core import FedOMDConfig, FedOMDTrainer
from repro.federated import TrainerConfig
from repro.graphs import load_dataset, louvain_partition
from repro.reporting import ascii_table, write_csv

MODEL_NAMES = [
    "fedmlp",
    "scaffold",
    "fedprox",
    "locgcn",
    "fedgcn",
    "fedlit",
    "fedsage+",
    "fedomd",
]


@dataclass
class ModeParams:
    """Scale knobs per execution mode (DESIGN.md §6)."""

    scale: float  # dataset node-count scale
    max_rounds: int
    patience: int
    seeds: int
    hidden: int = 64


MODE_PARAMS: Dict[str, ModeParams] = {
    "smoke": ModeParams(scale=0.12, max_rounds=30, patience=60, seeds=1, hidden=32),
    "quick": ModeParams(scale=0.25, max_rounds=200, patience=200, seeds=2, hidden=64),
    "full": ModeParams(scale=1.00, max_rounds=1000, patience=200, seeds=5, hidden=64),
}


@dataclass
class ExperimentResult:
    """Rows + metadata of one experiment; renders and persists itself."""

    name: str
    headers: List[str]
    rows: List[List] = field(default_factory=list)
    meta: Dict[str, str] = field(default_factory=dict)

    def add(self, *row) -> None:
        self.rows.append(list(row))

    def render(self) -> str:
        title = f"== {self.name} ==" + (
            f"  ({', '.join(f'{k}={v}' for k, v in self.meta.items())})" if self.meta else ""
        )
        return ascii_table(self.headers, [[str(c) for c in r] for r in self.rows], title=title)

    def save(self, out_dir: str) -> str:
        path = os.path.join(out_dir, f"{self.name}.csv")
        write_csv(path, self.headers, self.rows)
        return path


def make_trainer(
    model: str,
    parts,
    params: ModeParams,
    seed: int,
    fedomd_overrides: Optional[dict] = None,
    extra_config: Optional[dict] = None,
):
    """Instantiate a trainer by registry name with mode-scaled config.

    ``extra_config`` merges additional :class:`TrainerConfig` fields
    (e.g. ``{"sanitize": True}``, ``{"num_workers": 4}``) into whichever
    config class the model uses.
    """
    base = dict(
        max_rounds=params.max_rounds,
        patience=params.patience,
        hidden=params.hidden,
    )
    if extra_config:
        base.update(extra_config)
    if model == "fedomd":
        if fedomd_overrides:
            base.update(fedomd_overrides)
        return FedOMDTrainer(parts, FedOMDConfig(**base), seed=seed)
    if model in ALL_BASELINES:
        return ALL_BASELINES[model](parts, TrainerConfig(**base), seed=seed)
    raise KeyError(f"unknown model {model!r}; choose from {MODEL_NAMES}")


def run_cell(
    model: str,
    dataset: str,
    num_parties: int,
    params: ModeParams,
    seeds: Optional[Sequence[int]] = None,
    resolution: float = 1.0,
    fedomd_overrides: Optional[dict] = None,
    partition_cache: Optional[dict] = None,
) -> tuple:
    """(mean accuracy, std, seconds) for one table cell averaged over seeds.

    Each seed regenerates the dataset twin AND the Louvain cut — matching
    the paper's five repetitions, which resample everything stochastic.
    ``partition_cache`` (dict) memoizes (dataset, seed, M, resolution) →
    parts across models so the 8 models of one table row share cuts.
    """
    seeds = list(seeds if seeds is not None else range(params.seeds))
    accs = []
    t0 = time.perf_counter()
    for seed in seeds:
        key = (dataset, seed, num_parties, resolution, params.scale)
        if partition_cache is not None and key in partition_cache:
            parts = partition_cache[key]
        else:
            g = load_dataset(dataset, seed=seed, scale=params.scale)
            parts = louvain_partition(
                g, num_parties, np.random.default_rng(seed), resolution=resolution
            ).parts
            if partition_cache is not None:
                partition_cache[key] = parts
        trainer = make_trainer(model, parts, params, seed, fedomd_overrides)
        hist = trainer.run()
        accs.append(hist.final_test_accuracy())
    return float(np.mean(accs)), float(np.std(accs)), time.perf_counter() - t0


def default_out_dir(mode: str) -> str:
    return os.path.join("results", mode)

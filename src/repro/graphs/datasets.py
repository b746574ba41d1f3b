"""Synthetic statistical twins of the paper's five benchmarks (Table 2).

No network access is available offline, so ``load_dataset`` generates a
graph whose node/edge/class/feature counts match the published statistics
and whose *structural* properties (label homophily, community structure,
sparse class-informative features) reproduce what the experiments
actually exercise.  See DESIGN.md §2 for the substitution argument.

Each dataset also has a ``scale`` knob: ``scale=0.1`` generates a graph
with 10% of the nodes (edges scale accordingly) for quick-mode
experiments and the benchmark suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.graphs.data import Graph
from repro.graphs.features import class_conditional_features
from repro.graphs.sbm import dc_sbm
from repro.graphs.splits import semi_supervised_split


@dataclass(frozen=True)
class DatasetStats:
    """Published statistics from Table 2, plus generator parameters."""

    name: str
    nodes: int
    edges: int
    classes: int
    features: int
    # Generator tuning: average intra-class preference and degree tail.
    homophily: float = 0.8
    degree_exponent: float = 2.5
    words_per_node: int = 20
    class_signal: float = 0.8


DATASET_STATS: Dict[str, DatasetStats] = {
    "cora": DatasetStats("cora", 2708, 5429, 7, 1433, homophily=0.81),
    "citeseer": DatasetStats("citeseer", 3312, 4732, 6, 3703, homophily=0.74),
    "computer": DatasetStats(
        "computer", 13381, 245778, 10, 767, homophily=0.78, words_per_node=30
    ),
    "photo": DatasetStats("photo", 7487, 119043, 8, 745, homophily=0.83, words_per_node=30),
    "coauthor-cs": DatasetStats(
        "coauthor-cs", 18333, 182121, 15, 6805, homophily=0.81, words_per_node=25
    ),
}


def _block_sizes(n: int, k: int, rng: np.random.Generator, imbalance: float = 0.35) -> np.ndarray:
    """Class sizes with mild imbalance (real benchmarks are not uniform)."""
    props = rng.dirichlet(np.full(k, 1.0 / imbalance))
    sizes = np.maximum(1, np.round(props * n).astype(int))
    # Fix rounding drift so sizes sum exactly to n.
    diff = n - sizes.sum()
    sizes[np.argmax(sizes)] += diff
    if sizes.min() < 1:
        raise ValueError("class size collapsed to zero; lower imbalance")
    return sizes


def synthetic_citation_graph(
    stats: DatasetStats,
    rng: np.random.Generator,
    scale: float = 1.0,
) -> Graph:
    """Generate a statistical twin of ``stats`` at the given scale."""
    if not 0.0 < scale <= 1.0:
        raise ValueError("scale must be in (0, 1]")
    n = max(stats.classes * 8, int(round(stats.nodes * scale)))
    target_edges = max(n, int(round(stats.edges * scale)))
    sizes = _block_sizes(n, stats.classes, rng)

    # Convert target homophily + edge count to block probabilities.
    # Expected intra pairs ≈ Σ s_i²/2, inter pairs ≈ (n² − Σ s_i²)/2.
    intra_pairs = float((sizes.astype(float) ** 2).sum() / 2.0)
    inter_pairs = float(n * n / 2.0 - intra_pairs)
    h = stats.homophily
    p_in = h * target_edges / intra_pairs
    p_out = (1 - h) * target_edges / inter_pairs
    p_in = min(p_in, 1.0)
    p_out = min(p_out, p_in)

    adj, labels = dc_sbm(sizes, p_in, p_out, rng, degree_exponent=stats.degree_exponent)
    x = class_conditional_features(
        labels,
        stats.features,
        rng,
        words_per_node=stats.words_per_node,
        class_signal=stats.class_signal,
    )
    return Graph(x=x, adj=adj, y=labels, num_classes=stats.classes, name=stats.name)


def load_dataset(
    name: str,
    seed: int = 0,
    scale: float = 1.0,
    split: bool = True,
    train_ratio: float = 0.01,
    val_ratio: float = 0.20,
    test_ratio: float = 0.20,
    dtype=np.float32,
) -> Graph:
    """Load (generate) a dataset by name with the paper's 1%/20%/20% split.

    Parameters mirror Table 2's caption.  ``seed`` controls both topology
    and split so that repeated runs with different seeds (the paper's
    5 repetitions) vary everything a fresh download + split would.
    The features are generated in float64 and returned in ``dtype``,
    the dtype every run on the graph trains in: float32, as the paper's
    PyTorch trains, or float64.
    """
    key = name.lower()
    if key not in DATASET_STATS:
        raise KeyError(f"unknown dataset {name!r}; available: {sorted(DATASET_STATS)}")
    # zlib.crc32 is deterministic across processes (unlike str hash).
    import zlib

    rng = np.random.default_rng(seed + zlib.crc32(key.encode()) % (2**16))
    g = synthetic_citation_graph(DATASET_STATS[key], rng, scale=scale)
    if split:
        semi_supervised_split(
            g, rng, train_ratio=train_ratio, val_ratio=val_ratio, test_ratio=test_ratio
        )
    return g.astype(dtype)

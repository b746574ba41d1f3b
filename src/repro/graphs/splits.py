"""Train/validation/test node splits.

The paper uses an unusually scarce 1% / 20% / 20% split (Table 2
caption) — scarcity is what makes FedSage+/FedLIT underperform in §5.2,
so getting this right matters for reproducing Table 4's ordering.
Splits are stratified per class where possible so every class has at
least one training node globally.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.csr import unique
from repro.graphs.data import Graph


def semi_supervised_split(
    graph: Graph,
    rng: np.random.Generator,
    train_ratio: float = 0.01,
    val_ratio: float = 0.20,
    test_ratio: float = 0.20,
) -> Graph:
    """Attach boolean masks to ``graph`` in place (and return it).

    Stratified: each class contributes proportionally to each split,
    with a floor of one training node per observed class.
    """
    if min(train_ratio, val_ratio, test_ratio) < 0:
        raise ValueError("ratios must be non-negative")
    if train_ratio + val_ratio + test_ratio > 1.0 + 1e-9:
        raise ValueError("ratios must sum to at most 1")
    n = graph.num_nodes
    train = np.zeros(n, dtype=bool)
    val = np.zeros(n, dtype=bool)
    test = np.zeros(n, dtype=bool)

    for c in unique(graph.y):
        idx = np.flatnonzero(graph.y == c)
        idx = rng.permutation(idx)
        n_c = len(idx)
        n_train = max(1, int(round(train_ratio * n_c)))
        n_val = int(round(val_ratio * n_c))
        n_test = int(round(test_ratio * n_c))
        # Never let the three splits overrun the class population.
        n_val = min(n_val, max(0, n_c - n_train))
        n_test = min(n_test, max(0, n_c - n_train - n_val))
        train[idx[:n_train]] = True
        val[idx[n_train : n_train + n_val]] = True
        test[idx[n_train + n_val : n_train + n_val + n_test]] = True

    graph.train_mask = train
    graph.val_mask = val
    graph.test_mask = test
    return graph


def split_sizes(graph: Graph) -> tuple[int, int, int]:
    """(train, val, test) node counts; raises if masks are missing."""
    if graph.train_mask is None or graph.val_mask is None or graph.test_mask is None:
        raise ValueError("graph has no splits; call semi_supervised_split first")
    return int(graph.train_mask.sum()), int(graph.val_mask.sum()), int(graph.test_mask.sum())

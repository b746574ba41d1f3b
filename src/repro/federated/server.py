"""Server-side aggregation: FedAvg and variants.

Implements algorithm 1's ServerUpdate (lines 26–29): the weighted average
``W̄ = Σ λ_i W_i`` with λ_i proportional to party sample counts (the
McMahan et al. 2017 weighting) or uniform (Eq. 2's plain mean).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

StateDict = Dict[str, np.ndarray]


def fedavg(states: Sequence[StateDict], weights: Optional[Sequence[float]] = None) -> StateDict:
    """Weighted average of parameter dictionaries.

    Parameters
    ----------
    states:
        One ``state_dict`` per client (identical key sets and shapes).
    weights:
        Aggregation weights λ_i (normalized internally).  ``None`` means
        uniform.  Sample-count weighting is ``weights=[n_1, …, n_M]``.
    """
    if not states:
        raise ValueError("no states to aggregate")
    keys = set(states[0])
    for s in states[1:]:
        if set(s) != keys:
            raise KeyError("state dicts disagree on parameter names")
    if weights is None:
        n_contributing = len(states)  # uniform λ over who actually uploaded
        lam = np.full(n_contributing, 1.0 / n_contributing)
    else:
        w = np.asarray(weights, dtype=np.float64)
        if len(w) != len(states):
            raise ValueError("one weight per state required")
        if np.any(w < 0) or w.sum() <= 0:
            raise ValueError("weights must be non-negative and sum positive")
        lam = w / w.sum()
    out: StateDict = {}
    for k in states[0]:
        acc = np.zeros_like(states[0][k])
        # One product buffer per key, reused across the clients: λ_i·W_i
        # is formed in place rather than allocated once per client.
        term = np.empty_like(acc)
        for lam_i, s in zip(lam, states):
            if s[k].shape != acc.shape:
                raise ValueError(f"shape mismatch for {k}")
            acc += np.multiply(s[k], lam_i, out=term)
        out[k] = acc
    return out


def uniform_fedavg(states: Sequence[StateDict]) -> StateDict:
    """Eq. 2's unweighted mean."""
    return fedavg(states, weights=None)


def weighted_mean_statistics(
    values: Sequence[np.ndarray], counts: Sequence[float]
) -> np.ndarray:
    """Server-side mean of client statistics, weighted by sample counts.

    This is line 25 of Algorithm 1:  M = Σ n_i·M_i / Σ n_i — used for
    both the global hidden-feature means and the global central moments.
    """
    if len(values) != len(counts):
        raise ValueError("values and counts must align")
    if not values:
        raise ValueError("no statistics to aggregate")
    counts_arr = np.asarray(counts, dtype=np.float64)
    if np.any(counts_arr < 0) or counts_arr.sum() <= 0:
        raise ValueError("counts must be non-negative and sum positive")
    acc = np.zeros_like(np.asarray(values[0], dtype=np.float64))
    for v, n in zip(values, counts_arr):
        v = np.asarray(v, dtype=np.float64)
        if v.shape != acc.shape:
            raise ValueError("statistic shapes disagree")
        acc += n * v
    return acc / counts_arr.sum()

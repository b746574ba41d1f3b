"""Server-side aggregation: FedAvg and variants.

Implements algorithm 1's ServerUpdate (lines 26–29): the weighted average
``W̄ = Σ λ_i W_i`` with λ_i proportional to party sample counts (the
McMahan et al. 2017 weighting) or uniform (Eq. 2's plain mean).

A party whose model declares feature rows (OrthoGCN's input weight)
holds and uploads only the rows of its active feature columns.  The
server keeps the one full global state; :func:`take_rows` cuts a
party's download from it, and :func:`fedavg` folds a
:class:`PartialState` upload back into the full rows.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence

import numpy as np

from repro.graphs.csr import add_scaled_rows

StateDict = Dict[str, np.ndarray]
#: Parameter name -> the sorted global rows a party holds of it.
Rows = Mapping[str, np.ndarray]


class PartialState(dict):
    """An upload whose parameters named in ``rows`` hold only those rows.

    ``base`` is the full global state the fold reads for the rows the
    party does not hold: :func:`fedavg` treats them as unchanged, so they
    contribute ``W_g[r]`` exactly.  The base rides on the upload so that
    :func:`fedavg` keeps its one ``(states, weights)`` signature for
    partial and full uploads alike.
    """

    def __init__(self, state: Mapping[str, np.ndarray], rows: Rows, base: StateDict) -> None:
        super().__init__(state)
        self.rows = rows
        self.base = base


def take_rows(state: StateDict, rows: Rows) -> StateDict:
    """The part of a full ``state`` a party with ``rows`` holds (a copy of those rows)."""
    return {k: v[rows[k]] if k in rows else v for k, v in state.items()}


def fedavg(states: Sequence[StateDict], weights: Optional[Sequence[float]] = None) -> StateDict:
    """Weighted average of parameter dictionaries.

    Parameters
    ----------
    states:
        One ``state_dict`` per client (identical key sets).  Either all
        of them are :class:`PartialState` uploads sharing one ``base``,
        or none is.
    weights:
        Aggregation weights λ_i (normalized internally).  ``None`` means
        uniform.  Sample-count weighting is ``weights=[n_1, …, n_M]``.

    A parameter that no state holds in part is ``Σ λ_i W_i``, summed in
    state order (plain FedAvg, bit for bit).  A parameter that some
    state holds in part is folded row by row into the base ``W_g``::

        W[r] = W_g[r] + Σ_{i holds r} λ_i (W_i[r] − W_g[r])
             = W_g[r]·(1 − Σ_{i holds r} λ_i) + Σ_{i holds r} λ_i W_i[r]

    (the second form, which scales ``W_g`` once and scatter-adds each
    ``λ_i W_i``).  It equals plain FedAvg over uploads completed with
    ``W_g`` in the rows their party does not hold, and a row no state
    holds is exactly ``W_g[r]``.
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
    bases = {id(getattr(s, "base", None)) for s in states}
    if len(bases) != 1:
        raise ValueError("partial uploads must all share one global base")
    base = getattr(states[0], "base", None)
    out: StateDict = {}
    for k in states[0]:
        held = [getattr(s, "rows", {}).get(k) for s in states]
        if all(r is None for r in held):
            out[k] = _weighted_sum([s[k] for s in states], lam, k)
        else:
            out[k] = _fold_rows(base[k], [s[k] for s in states], held, lam, k)
    return out


def _weighted_sum(arrays: Sequence[np.ndarray], lam: np.ndarray, key: str) -> np.ndarray:
    """``Σ λ_i a_i`` in order, accumulated from zero (plain FedAvg).

    The sum has the uploads' dtype: λ is cast to it, so a float64
    weight vector does not promote float32 weights.
    """
    acc = np.zeros_like(arrays[0])
    # One product buffer per key, reused across the clients: λ_i·W_i
    # is formed in place rather than allocated once per client.
    term = np.empty_like(acc)
    for lam_i, a in zip(lam.astype(acc.dtype, copy=False), arrays):
        if a.shape != acc.shape:
            raise ValueError(f"shape mismatch for {key}")
        acc += np.multiply(a, lam_i, out=term)
    return acc


def _fold_rows(
    base: np.ndarray,
    arrays: Sequence[np.ndarray],
    held: Sequence[np.ndarray],
    lam: np.ndarray,
    key: str,
) -> np.ndarray:
    """:func:`fedavg`'s row fold of one parameter, in ``base``'s dtype;
    party ``i`` holds rows ``held[i]``."""
    lam = lam.astype(base.dtype, copy=False)
    cover = np.zeros(len(base), dtype=base.dtype)
    for lam_i, r in zip(lam, held):
        cover[r] += lam_i
    acc = base * (1.0 - cover).reshape((-1,) + (1,) * (base.ndim - 1))
    for lam_i, a, r in zip(lam, arrays, held):
        if a.shape != (len(r),) + base.shape[1:]:
            raise ValueError(f"shape mismatch for {key}")
        add_scaled_rows(acc, r, a, lam_i)
    return acc


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

"""Loss functions and classification metrics.

``cross_entropy`` + ``orthogonality_loss`` are two of the three terms of
the paper's Eq. 12 (the third, the CMD term, lives in
:mod:`repro.core.cmd` because it needs federated statistics).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.autograd import Tensor, as_tensor, log_softmax
from repro.autograd.ops_reduce import frobenius_norm


def _select_rows(z: Tensor, mask: Optional[np.ndarray]) -> Tensor:
    if mask is None:
        return z
    mask = np.asarray(mask)
    if mask.dtype == bool:
        if not mask.any():
            raise ValueError("loss mask selects no nodes")
        mask = np.flatnonzero(mask)
    return z[mask]


def cross_entropy(logits: Tensor, labels: np.ndarray, mask: Optional[np.ndarray] = None) -> Tensor:
    """Mean cross-entropy over (optionally masked) rows.

    ``logits`` are raw scores; the softmax of the paper's Eq. 9 is folded
    into the numerically-stable ``log_softmax`` here, the standard fusion.
    ``labels`` are integer class ids; ``mask`` restricts to the training
    rows (1% label rate in the paper's split).
    """
    logits = as_tensor(logits)
    labels = np.asarray(labels)
    if mask is not None:
        m = np.asarray(mask)
        idx = np.flatnonzero(m) if m.dtype == bool else m
        labels = labels[idx]
    sel = _select_rows(logits, mask)
    logp = log_softmax(sel, axis=-1)
    # Gather the label column with a one-hot multiply: getitem supports row
    # indexing only, and the multiply stays fully vectorized.
    n, c = sel.shape
    onehot = np.zeros((n, c), dtype=logp.data.dtype)
    onehot[np.arange(n), labels] = 1.0
    nll = -(logp * Tensor(onehot)).sum() / float(n)
    return nll


def nll_loss(logp: Tensor, labels: np.ndarray, mask: Optional[np.ndarray] = None) -> Tensor:
    """Mean negative log-likelihood given *log-probabilities*."""
    logp = as_tensor(logp)
    labels = np.asarray(labels)
    if mask is not None:
        m = np.asarray(mask)
        idx = np.flatnonzero(m) if m.dtype == bool else m
        labels = labels[idx]
    sel = _select_rows(logp, mask)
    n, c = sel.shape
    onehot = np.zeros((n, c), dtype=sel.data.dtype)
    onehot[np.arange(n), labels] = 1.0
    return -(sel * Tensor(onehot)).sum() / float(n)


def mse_loss(pred: Tensor, target) -> Tensor:
    """Mean squared error (FedSage+ feature-generator loss)."""
    pred = as_tensor(pred)
    target = as_tensor(target)
    diff = pred - target
    return (diff * diff).mean()


def orthogonality_loss(weights: Sequence[Tensor]) -> Tensor:
    """Eq. 6: ``Σ_k ‖ W_k W_kᵀ − I ‖_F`` over hidden-layer weights.

    Each ``W_k`` must be square (the OrthoConv hidden weights are
    d_h × d_h per Table 1).
    """
    if not weights:
        raise ValueError("orthogonality_loss needs at least one weight")
    total: Optional[Tensor] = None
    for w in weights:
        w = as_tensor(w)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError(f"orthogonality penalty requires square weights, got {w.shape}")
        eye = Tensor(np.eye(w.shape[0], dtype=w.data.dtype))
        term = frobenius_norm(w @ w.T - eye)
        total = term if total is None else total + term
    return total


def accuracy(logits, labels: np.ndarray, mask: Optional[np.ndarray] = None) -> float:
    """Top-1 accuracy over (optionally masked) rows; returns a float."""
    scores = logits.data if isinstance(logits, Tensor) else np.asarray(logits)
    labels = np.asarray(labels)
    if mask is not None:
        m = np.asarray(mask)
        idx = np.flatnonzero(m) if m.dtype == bool else np.asarray(m)
        scores = scores[idx]
        labels = labels[idx]
    if len(labels) == 0:
        return float("nan")
    pred = scores.argmax(axis=-1)
    return float((pred == labels).mean())


def macro_f1(logits, labels: np.ndarray, mask: Optional[np.ndarray] = None) -> float:
    """Macro-averaged F1 (robust to the label skew Figure 4 shows)."""
    scores = logits.data if isinstance(logits, Tensor) else np.asarray(logits)
    labels = np.asarray(labels)
    if mask is not None:
        m = np.asarray(mask)
        idx = np.flatnonzero(m) if m.dtype == bool else np.asarray(m)
        scores = scores[idx]
        labels = labels[idx]
    pred = scores.argmax(axis=-1)
    classes = np.unique(labels)
    f1s = []
    for c in classes:
        tp = np.sum((pred == c) & (labels == c))
        fp = np.sum((pred == c) & (labels != c))
        fn = np.sum((pred != c) & (labels == c))
        denom = 2 * tp + fp + fn
        f1s.append(2 * tp / denom if denom > 0 else 0.0)
    return float(np.mean(f1s))

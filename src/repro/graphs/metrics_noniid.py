"""Quantifying the non-i.i.d.-ness the paper's Figure 4 visualizes.

Figure 4 plots per-party label-count circles; Figure 1 argues feature
distributions differ per party.  These helpers compute the underlying
numbers: per-party label histograms, pairwise label-distribution
divergence, and feature-mean distances — they power the fig4 experiment
and several tests asserting that Louvain cuts really are non-i.i.d.
while random cuts are nearly i.i.d.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.graphs.data import Graph


def label_distribution(graph: Graph) -> np.ndarray:
    """Normalized label histogram of one party (length ``num_classes``)."""
    counts = graph.label_counts().astype(float)
    total = counts.sum()
    return counts / total if total > 0 else counts


def party_label_matrix(parts: Sequence[Graph]) -> np.ndarray:
    """(M, C) matrix of label *counts* per party — Figure 4's raw data."""
    if not parts:
        raise ValueError("no parties given")
    return np.stack([p.label_counts() for p in parts])


def _js_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """Jensen–Shannon divergence (base e, symmetric, bounded by ln 2)."""
    p = p / p.sum() if p.sum() > 0 else p
    q = q / q.sum() if q.sum() > 0 else q
    m = 0.5 * (p + q)

    def kl(a, b):
        mask = a > 0
        return float(np.sum(a[mask] * np.log(a[mask] / b[mask])))

    return 0.5 * kl(p, m) + 0.5 * kl(q, m)


def label_divergence(parts: Sequence[Graph]) -> float:
    """Mean pairwise JS divergence of party label distributions.

    0 for identical distributions; ln 2 ≈ 0.693 for disjoint ones.
    Louvain cuts of homophilous graphs score high; random cuts near 0.
    """
    dists = [label_distribution(p) for p in parts]
    m = len(dists)
    if m < 2:
        return 0.0
    vals = [
        _js_divergence(dists[i], dists[j]) for i in range(m) for j in range(i + 1, m)
    ]
    return float(np.mean(vals))


def feature_mean_distance(parts: Sequence[Graph]) -> float:
    """Mean pairwise L2 distance between party feature means.

    The quantity FedOMD's first-order CMD term directly penalizes in
    hidden space; measured here in input space as a non-i.i.d. indicator.
    """
    # Column sums in row order: bitwise the dense ``x.mean(axis=0)``.
    means = [
        np.bincount(p.x.indices, weights=p.x.data, minlength=p.num_features) / p.num_nodes
        for p in parts
    ]
    m = len(means)
    if m < 2:
        return 0.0
    vals = [
        float(np.linalg.norm(means[i] - means[j]))
        for i in range(m)
        for j in range(i + 1, m)
    ]
    return float(np.mean(vals))


def missing_classes_per_party(parts: Sequence[Graph]) -> List[int]:
    """How many global classes each party never observes."""
    return [int((p.label_counts() == 0).sum()) for p in parts]

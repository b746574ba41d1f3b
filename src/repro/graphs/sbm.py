"""Degree-corrected stochastic block model generator.

Produces label-homophilous graphs with heavy-tailed degrees and planted
community structure — the three topology properties the paper's pipeline
depends on (GCN propagation exploits homophily; Louvain finds the
communities; degree heterogeneity is what makes Amazon co-purchase
graphs much denser than citation graphs).

The sampler is fully vectorized: candidate edges are drawn block-pair by
block-pair using the expected-edge-count Poisson approximation of the
DC-SBM (Karrer & Newman 2011), which is O(E) rather than O(N²).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.graphs.csr import CSRMatrix, symmetric_adjacency, upper_triangle


def _power_law_weights(n: int, exponent: float, rng: np.random.Generator) -> np.ndarray:
    """Degree propensities θ with a Pareto tail, normalized to mean 1."""
    theta = (1.0 - rng.random(n)) ** (-1.0 / (exponent - 1.0))
    # Truncate extreme draws so a single hub cannot absorb all edges.
    theta = np.minimum(theta, theta.mean() * 50)
    return theta / theta.mean()


def dc_sbm(
    sizes: np.ndarray,
    p_in: float,
    p_out: float,
    rng: np.random.Generator,
    degree_exponent: Optional[float] = 2.5,
) -> tuple[CSRMatrix, np.ndarray]:
    """Sample a degree-corrected SBM.

    Parameters
    ----------
    sizes:
        Nodes per block; block id doubles as the class label.
    p_in / p_out:
        Intra-/inter-block edge probability scale (before degree
        correction).  Homophily requires ``p_in > p_out``.
    rng:
        Seeded generator.
    degree_exponent:
        Pareto exponent of the degree propensities; ``None`` disables
        degree correction (plain planted-partition model).

    Returns
    -------
    (adjacency CSR, block labels)
    """
    sizes = np.asarray(sizes, dtype=int)
    if np.any(sizes <= 0):
        raise ValueError("all block sizes must be positive")
    if not (0 <= p_out <= p_in <= 1):
        raise ValueError("need 0 <= p_out <= p_in <= 1")
    n = int(sizes.sum())
    labels = np.repeat(np.arange(len(sizes)), sizes)
    offsets = np.concatenate([[0], np.cumsum(sizes)])

    if degree_exponent is not None:
        theta = _power_law_weights(n, degree_exponent, rng)
    else:
        theta = np.ones(n)

    rows_all = []
    cols_all = []
    k = len(sizes)
    for a in range(k):
        ia = np.arange(offsets[a], offsets[a + 1])
        for b in range(a, k):
            ib = np.arange(offsets[b], offsets[b + 1])
            p = p_in if a == b else p_out
            if p == 0:
                continue
            # Expected number of edges between the two blocks under the
            # Poisson DC-SBM; sample that many endpoint pairs weighted by θ.
            if a == b:
                expected = p * len(ia) * (len(ia) - 1) / 2.0
            else:
                expected = p * len(ia) * len(ib)
            m = rng.poisson(expected)
            if m == 0:
                continue
            wa = theta[ia] / theta[ia].sum()
            wb = theta[ib] / theta[ib].sum()
            u = rng.choice(ia, size=m, p=wa)
            v = rng.choice(ib, size=m, p=wb)
            keep = u != v
            rows_all.append(u[keep])
            cols_all.append(v[keep])

    if rows_all:
        rows = np.concatenate(rows_all)
        cols = np.concatenate(cols_all)
    else:
        rows = np.empty(0, dtype=int)
        cols = np.empty(0, dtype=int)

    return symmetric_adjacency(rows, cols, n), labels


def edge_homophily(adj: CSRMatrix, labels: np.ndarray) -> float:
    """Fraction of edges joining same-label endpoints."""
    rows, cols = upper_triangle(adj)
    if len(rows) == 0:
        return float("nan")
    return float((labels[rows] == labels[cols]).mean())

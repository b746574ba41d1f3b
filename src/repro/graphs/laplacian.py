"""Symmetric-normalized propagation operators.

Implements the paper's S̃ = D^{-1/2}(A + I)D^{-1/2} with
D_ii = Σ_j (A + I)_ij — the Kipf-Welling renormalization trick that
every GCNConv/OrthoConv layer multiplies by.  Each builder returns a
:class:`~repro.graphs.csr.CSRMatrix`, byte for byte what the
``scipy.sparse`` expression it names builds.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.csr import CSRMatrix, as_csr, expand_rows, from_coo


def add_self_loops(adj) -> CSRMatrix:
    """Return Â = A + I, idempotently: scipy's ``A - diag(A) + I``.

    Any diagonal entries already present in ``A`` are removed first, so
    the result's diagonal is exactly 1 regardless of the input — a
    plain ``A + I`` would double-count existing self loops, making
    ``add_self_loops(add_self_loops(A)) != add_self_loops(A)`` despite
    the old docstring's idempotence claim.  Like scipy's sum, the
    result drops explicit zeros and sorts each row.
    """
    a = as_csr(adj)
    n, rows = a.shape[0], expand_rows(a.indptr)
    keep = (rows != a.indices) & (a.data != 0)
    diag = np.arange(n)
    r, c = np.concatenate([rows[keep], diag]), np.concatenate([a.indices[keep], diag])
    order = np.argsort(r.astype(np.int64) * a.shape[1] + c, kind="stable")  # two sorted runs
    data = np.concatenate([a.data[keep].astype(np.float64), np.ones(n)])
    return from_coo(r[order], c[order], data[order], a.shape)


def normalized_adjacency(adj, dtype=np.float64) -> CSRMatrix:
    """S̃ = D^{-1/2}(A+I)D^{-1/2}: scipy's ``(d_mat @ a_hat @ d_mat).tocsr()``.

    Isolated nodes (degree 0 before self-loops) get degree 1 from the
    self-loop, so the inverse square root is always defined — important
    because Louvain cuts routinely strand isolated nodes inside parties.
    """
    a_hat = add_self_loops(adj)
    d_inv_sqrt = 1.0 / np.sqrt(a_hat.row_sums())
    rows = expand_rows(a_hat.indptr)
    data = (d_inv_sqrt[rows] * a_hat.data) * d_inv_sqrt[a_hat.indices]
    return CSRMatrix(data.astype(dtype), a_hat.indices, a_hat.indptr, a_hat.shape)


def row_normalized_adjacency(adj, dtype=np.float64) -> CSRMatrix:
    """D^{-1}(A+I) — the mean-aggregator used by the SAGEConv baseline.

    scipy's ``(d_mat @ a_hat).tocsr().astype(dtype)``: the product lists
    each row's entries in descending column order, and a cast to float32
    sorts them again.
    """
    a_hat = add_self_loops(adj)
    rows = expand_rows(a_hat.indptr)
    data = (1.0 / a_hat.row_sums())[rows] * a_hat.data
    if dtype != np.float64:
        return CSRMatrix(data.astype(dtype), a_hat.indices, a_hat.indptr, a_hat.shape)
    flip = (a_hat.indptr[:-1] + a_hat.indptr[1:] - 1)[rows] - np.arange(a_hat.nnz)
    return CSRMatrix(data[flip], a_hat.indices[flip], a_hat.indptr, a_hat.shape)


def spectral_radius_bound(s: CSRMatrix) -> float:
    """Cheap upper bound on the spectral radius (max absolute row sum).

    Used in tests: the symmetric normalization guarantees eigenvalues of
    S̃ lie in (−1, 1], so repeated propagation cannot blow up.
    """
    return float(CSRMatrix(np.abs(s.data), s.indices, s.indptr, s.shape).row_sums().max())

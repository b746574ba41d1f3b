"""Sparse features: the CSR generator and the input projection's products.

The generator builds its CSR straight from the RNG draws; the reference
below is the dense construction it replaced, kept here so the two can be
compared bit for bit.  The product checks run ``spmm`` on a features
container against the dense ``X·W`` and ``Xᵀ·G`` (the way torch_sparse
is tested against ``torch.spmm``), with empty rows and columns.
"""

from itertools import product

import numpy as np
import pytest
import scipy.sparse as sp

from repro.autograd import Tensor, spmm
from repro.graphs import CSRMatrix, Graph, class_conditional_features
from repro.graphs.features import feature_sparsity


def dense_reference(labels, num_features, rng, words_per_node=20, class_signal=0.8,
                    vocab_per_class=None, row_normalize=True):
    """The dense construction the CSR generator replaced, draw for draw."""
    n = len(labels)
    num_classes = int(labels.max()) + 1 if n else 0
    if vocab_per_class is None:
        vocab_per_class = max(4, num_features // max(num_classes, 1))
    class_vocab = [rng.permutation(num_features)[:vocab_per_class] for _ in range(num_classes)]
    x = np.zeros((n, num_features))
    for c in range(num_classes):
        idx = np.flatnonzero(labels == c)
        if len(idx) == 0:
            continue
        k = words_per_node
        from_class = rng.random((len(idx), k)) < class_signal
        class_words = rng.choice(class_vocab[c], size=(len(idx), k))
        background_words = rng.integers(0, num_features, size=(len(idx), k))
        words = np.where(from_class, class_words, background_words)
        x[np.repeat(idx, k), words.ravel()] = 1.0
    if row_normalize:
        sums = x.sum(axis=1, keepdims=True)
        sums[sums == 0] = 1.0
        x = x / sums
    return x


def _labels(seed, n=60, classes=4):
    return np.random.default_rng(seed).integers(0, classes, n)


class TestGeneratorParity:
    @pytest.mark.parametrize(
        "num_features, words_per_node, class_signal, row_normalize",
        list(product([7, 50, 300], [1, 5, 40], [0.0, 0.8, 1.0], [True, False])),
    )
    def test_bitwise_equal_to_dense_construction(
        self, num_features, words_per_node, class_signal, row_normalize
    ):
        labels = _labels(num_features + words_per_node)
        kwargs = dict(
            words_per_node=words_per_node, class_signal=class_signal, row_normalize=row_normalize
        )
        x = class_conditional_features(labels, num_features, np.random.default_rng(3), **kwargs)
        ref = dense_reference(labels, num_features, np.random.default_rng(3), **kwargs)
        assert isinstance(x, CSRMatrix)
        assert np.array_equal(x.toarray(), ref)
        # Stored entries are exactly the nonzeros, columns sorted per row.
        assert x.nnz == np.count_nonzero(ref)
        for i in range(x.shape[0]):
            cols = x.indices[x.indptr[i]:x.indptr[i + 1]]
            assert np.all(np.diff(cols) > 0)

    def test_empty_class_draws_nothing(self):
        # Class 1 has no node: the reference skips it without an RNG draw,
        # and so must the generator, or every later class would shift.
        labels = np.array([0, 2, 2, 0, 3, 3, 0, 2])
        x = class_conditional_features(labels, 40, np.random.default_rng(9), words_per_node=6)
        ref = dense_reference(labels, 40, np.random.default_rng(9), words_per_node=6)
        assert np.array_equal(x.toarray(), ref)

    def test_same_arrays_as_converting_the_dense_matrix(self):
        labels = _labels(11)
        x = class_conditional_features(labels, 120, np.random.default_rng(4))
        ref = sp.csr_matrix(dense_reference(labels, 120, np.random.default_rng(4)))
        assert np.array_equal(x.data, ref.data)
        assert np.array_equal(x.indices, ref.indices)
        assert np.array_equal(x.indptr, ref.indptr)

    def test_sparsity_reads_the_csr(self):
        labels = _labels(12)
        x = class_conditional_features(labels, 200, np.random.default_rng(5), words_per_node=8)
        ref = dense_reference(labels, 200, np.random.default_rng(5), words_per_node=8)
        assert feature_sparsity(x) == pytest.approx(float((ref == 0).mean()), abs=1e-15)


def _sparse_operand(seed, n=40, f=30, density=0.1):
    """Random CSR features with some all-zero rows and columns."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, f)) * (rng.random((n, f)) < density)
    x[rng.choice(n, 5, replace=False)] = 0.0
    x[:, rng.choice(f, 4, replace=False)] = 0.0
    return x


class TestProjectionParity:
    @pytest.mark.parametrize("seed", range(4))
    def test_forward_and_weight_gradient_match_dense(self, seed):
        dense = _sparse_operand(seed)
        g = Graph(x=dense, adj=sp.csr_matrix((40, 40)), y=np.zeros(40, dtype=int), num_classes=1)
        rng = np.random.default_rng(100 + seed)
        w = Tensor(rng.standard_normal((30, 8)), requires_grad=True)
        upstream = rng.standard_normal((40, 8))
        out = spmm(g.x, w)
        np.testing.assert_allclose(out.data, dense @ w.data, rtol=1e-12, atol=1e-12)
        (out * Tensor(upstream)).sum().backward()
        np.testing.assert_allclose(w.grad, dense.T @ upstream, rtol=1e-12, atol=1e-12)

    def test_empty_rows_and_columns_give_exact_zeros(self):
        dense = _sparse_operand(7)
        g = Graph(x=dense, adj=sp.csr_matrix((40, 40)), y=np.zeros(40, dtype=int), num_classes=1)
        w = Tensor(np.ones((30, 3)), requires_grad=True)
        out = spmm(g.x, w)
        empty_rows = ~dense.any(axis=1)
        assert np.all(out.data[empty_rows] == 0.0)
        out.sum().backward()
        empty_cols = ~dense.any(axis=0)
        assert np.all(w.grad[empty_cols] == 0.0)

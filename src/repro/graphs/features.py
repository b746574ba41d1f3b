"""Class-conditional sparse bag-of-words feature generator.

Citation-network features are high-dimensional sparse binary vectors
whose active-word distribution depends on the document's topic (class).
We model that directly: each class owns a sparse "topic profile" over the
vocabulary; a node samples its active words from a mixture of its class
profile and a background profile.  This yields features that are
(a) linearly separable enough for MLPs to beat chance, (b) much more
informative when smoothed over homophilous edges — the property that
makes GCNs win, which Table 4's LocGCN-vs-FedMLP gap depends on.

The matrix is built directly as a :class:`~repro.graphs.csr.CSRMatrix`
(the Table-2 twins are 0.4–1.4% dense), so no dense ``(n, f)`` array is
ever allocated: a word drawn twice is one entry, and a row-normalized
entry is ``1.0/k`` for a node with ``k`` distinct words — bitwise the
value the dense ``x / x.sum(axis=1)`` construction gives.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.graphs.csr import CSRMatrix, from_coo, unique


def class_conditional_features(
    labels: np.ndarray,
    num_features: int,
    rng: np.random.Generator,
    words_per_node: int = 20,
    class_signal: float = 0.8,
    vocab_per_class: Optional[int] = None,
    row_normalize: bool = True,
) -> CSRMatrix:
    """Sample ``(n, num_features)`` bag-of-words features as a CSR matrix.

    Parameters
    ----------
    labels:
        Integer class per node.
    num_features:
        Vocabulary size (Table 2's #Features).
    words_per_node:
        Active words per node (citation datasets average ~20–50).
    class_signal:
        Probability that a word is drawn from the node's class profile
        rather than the shared background; 0 makes features useless,
        1 makes them trivially separable.  The default keeps the task
        hard enough that federation matters.
    vocab_per_class:
        Size of each class's preferred-word set (default: vocabulary /
        #classes, disjoint-ish but overlapping with background).
    row_normalize:
        L1-normalize rows (the standard Planetoid preprocessing).
    """
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ValueError("labels must be 1-D")
    if not 0.0 <= class_signal <= 1.0:
        raise ValueError("class_signal must be in [0, 1]")
    if words_per_node <= 0 or num_features <= 0:
        raise ValueError("words_per_node and num_features must be positive")
    n = len(labels)
    num_classes = int(labels.max()) + 1 if n else 0
    if vocab_per_class is None:
        vocab_per_class = max(4, num_features // max(num_classes, 1))

    # Each class prefers a contiguous-but-jittered slice of the vocabulary.
    class_vocab = []
    for c in range(num_classes):
        base = rng.permutation(num_features)[:vocab_per_class]
        class_vocab.append(base)

    rows, cols = [], []
    # Vectorize per class: all nodes of one class share a sampling pool.
    for c in range(num_classes):
        idx = np.flatnonzero(labels == c)
        if len(idx) == 0:
            continue
        k = words_per_node
        # Which of each node's words are class words vs background words.
        from_class = rng.random((len(idx), k)) < class_signal
        class_words = rng.choice(class_vocab[c], size=(len(idx), k))
        background_words = rng.integers(0, num_features, size=(len(idx), k))
        words = np.where(from_class, class_words, background_words)
        rows.append(np.repeat(idx, k))
        cols.append(words.ravel())

    r = np.concatenate(rows) if rows else np.zeros(0, dtype=np.int64)
    w = np.concatenate(cols) if cols else np.zeros(0, dtype=np.int64)
    return bag_of_words(r, w, (n, num_features), row_normalize)


def bag_of_words(rows: np.ndarray, words: np.ndarray, shape: tuple, row_normalize: bool):
    """The CSR of the drawn ``(node, word)`` pairs: a word drawn twice is
    one entry, columns sorted, values 1 or (row-normalized) ``1.0/k``."""
    keys = unique(rows * shape[1] + words)
    k = np.bincount(keys // shape[1], minlength=shape[0])
    # A row of k ones sums to exactly k, so each entry is 1.0 / k.
    data = np.repeat(1.0 / np.maximum(k, 1), k) if row_normalize else np.ones(len(keys))
    return from_coo(keys // shape[1], keys % shape[1], data, shape)


def feature_sparsity(x: CSRMatrix) -> float:
    """Fraction of zero entries (sanity metric for Table 2 twins)."""
    n, f = x.shape
    return 1.0 - x.nnz / (n * f)

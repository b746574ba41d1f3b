"""The :class:`Graph` container used throughout the reproduction.

One immutable-ish record per (sub)graph: features ``x``, CSR adjacency
``adj`` (symmetric, no self loops), integer labels ``y``, and optional
boolean train/val/test masks.  The normalized propagation operator
``s_op`` (the paper's S̃, in ``x``'s dtype) is built lazily and cached,
since every GCN forward needs it and it never changes.

The bag-of-words features are 0.4–1.4% dense on the Table-2 twins, so
``x`` is stored once, as a :class:`~repro.graphs.csr.CSRMatrix`, and
never densified: it is the operator every model's first layer
multiplies through ``spmm``, and the weight gradient ``Xᵀ·G`` reads the
same arrays (:meth:`~repro.graphs.csr.CSRMatrix.rmatmul`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from repro.graphs.csr import CSRMatrix, as_csr, expand_rows
from repro.graphs.laplacian import normalized_adjacency, row_normalized_adjacency
from repro.obs.metrics import get_registry as _get_metrics


def _meter_csr_cache(op: str, hit: bool) -> None:
    """Count kernel-operator cache outcomes when telemetry is live."""
    reg = _get_metrics()
    if reg.enabled:
        reg.counter("kernel.csr_cache", op=op, result="hit" if hit else "miss").inc()


@dataclass
class Graph:
    """A node-classification graph.

    Attributes
    ----------
    x:
        ``(n, f)`` feature matrix, a
        :class:`~repro.graphs.csr.CSRMatrix`.  The constructor also
        accepts a dense array or a scipy sparse matrix and converts it
        once.  Its dtype is the training dtype of every run on the graph:
        float32 from :func:`~repro.graphs.datasets.load_dataset`, as the
        paper's PyTorch trains.  The cached operators ``s_op`` and
        ``mean_op`` take ``x``'s dtype.
    adj:
        ``(n, n)`` symmetric CSR adjacency with zero diagonal, converted once like ``x``.
    y:
        ``(n,)`` integer labels.
    train_mask / val_mask / test_mask:
        Optional boolean masks over nodes.
    num_classes:
        Total class count of the *global* problem — must be carried by
        subgraphs too (a party may not observe all classes locally, but
        its classifier head must still be class-complete for FedAvg).
    """

    x: CSRMatrix
    adj: CSRMatrix
    y: np.ndarray
    num_classes: int
    train_mask: Optional[np.ndarray] = None
    val_mask: Optional[np.ndarray] = None
    test_mask: Optional[np.ndarray] = None
    name: str = "graph"
    _edge_index: Optional[tuple] = field(default=None, repr=False, compare=False)
    _s_op: Optional[CSRMatrix] = field(default=None, repr=False, compare=False)
    _mean_op: Optional[CSRMatrix] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.x = as_csr(self.x)
        self.y = np.asarray(self.y, dtype=np.int64)
        self.adj = as_csr(self.adj)
        n = self.x.shape[0]
        if self.adj.shape != (n, n):
            raise ValueError(f"adjacency shape {self.adj.shape} does not match {n} nodes")
        if self.y.shape[0] != n:
            raise ValueError("label count does not match node count")
        if self.num_classes <= 0:
            raise ValueError("num_classes must be positive")
        if self.y.size and (self.y.min() < 0 or self.y.max() >= self.num_classes):
            raise ValueError("labels out of range for num_classes")
        for mask_name in ("train_mask", "val_mask", "test_mask"):
            m = getattr(self, mask_name)
            if m is not None:
                m = np.asarray(m, dtype=bool)
                if m.shape != (n,):
                    raise ValueError(f"{mask_name} has shape {m.shape}, expected ({n},)")
                setattr(self, mask_name, m)

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self.x.shape[0]

    @property
    def num_features(self) -> int:
        return self.x.shape[1]

    @property
    def num_edges(self) -> int:
        """Undirected edge count (each edge stored twice in CSR)."""
        return int(self.adj.nnz // 2)

    def _operator(self, name: str, build) -> CSRMatrix:
        """Cached operator ``name``: ``build(adj, x.dtype)``."""
        op = getattr(self, name)
        _meter_csr_cache(name[1:], hit=op is not None)
        if op is None:
            op = build(self.adj, self.x.dtype)
            setattr(self, name, op)
        return op

    @property
    def s_op(self) -> CSRMatrix:
        """Cached S̃ = D^{-1/2}(A+I)D^{-1/2} (Eq. 7/9's propagation matrix).

        Built once per graph, so no forward or backward pass ever pays a
        sparse conversion again — this is the operand GCN/Ortho layers
        propagate through, and the only copy of S̃ the graph holds.
        """
        return self._operator("_s_op", normalized_adjacency)

    @property
    def mean_op(self) -> CSRMatrix:
        """Cached row-normalized (A+I) — GraphSAGE's mean aggregator.

        Cached on the graph, not in a model-side ``id(graph)``-keyed dict:
        ids are reused after garbage collection, so such a dict can serve
        another graph's operator, and it keeps every graph it saw alive.
        """
        return self._operator("_mean_op", row_normalized_adjacency)

    def astype(self, dtype) -> "Graph":
        """This graph with its features in ``dtype``: ``self`` when they are.

        The copy shares everything else; its ``s_op`` and ``mean_op`` are
        built in ``dtype`` when needed.
        """
        if self.x.dtype == dtype:
            return self
        return replace(self, x=self.x.astype(dtype), _s_op=None, _mean_op=None)

    @property
    def edge_index(self) -> tuple:
        """Cached ``(src, dst)`` int64 arrays with self loops (GAT's edges)."""
        if self._edge_index is None:
            loops = np.arange(self.num_nodes)
            src = np.concatenate([expand_rows(self.adj.indptr), loops]).astype(np.int64)
            dst = np.concatenate([self.adj.indices, loops]).astype(np.int64)
            self._edge_index = (src, dst)
        return self._edge_index

    def degrees(self) -> np.ndarray:
        """Node degrees (without self loops)."""
        return self.adj.row_sums()

    def label_counts(self) -> np.ndarray:
        """Histogram of labels over all ``num_classes`` classes."""
        return np.bincount(self.y, minlength=self.num_classes)

    def validate(self, atol: float = 0.0) -> None:
        """Structural invariants: symmetry, zero diagonal, finite features.

        Symmetry is checked as ``max|A - Aᵀ| <= atol``: the subtraction
        stays in the fast CSR kernels for every input format, unlike the
        former ``(A != Aᵀ).nnz`` comparison which emitted scipy's
        ``SparseEfficiencyWarning`` and densified intermediate results
        for some formats.  ``atol`` admits float round-off in weighted
        adjacencies; the default demands exact symmetry.  A check for
        tests and loaders, it imports ``scipy.sparse``.
        """
        a = self.adj.to_scipy()
        diff = (a - a.T).tocsr()
        if diff.nnz and float(np.abs(diff.data).max()) > atol:
            raise ValueError("adjacency must be symmetric")
        if np.any(a.diagonal() != 0):
            raise ValueError("adjacency must have an empty diagonal")
        if not np.all(np.isfinite(self.x.data)):
            raise ValueError("features contain non-finite values")

    def copy(self) -> "Graph":
        """Deep copy (masks included, cache dropped)."""
        return Graph(
            x=self.x.copy(),
            adj=self.adj.copy(),
            y=self.y.copy(),
            num_classes=self.num_classes,
            train_mask=None if self.train_mask is None else self.train_mask.copy(),
            val_mask=None if self.val_mask is None else self.val_mask.copy(),
            test_mask=None if self.test_mask is None else self.test_mask.copy(),
            name=self.name,
        )

    def summary(self) -> str:
        """One-line description (Table 2 row format)."""
        return (
            f"{self.name}: {self.num_nodes} nodes, {self.num_edges} edges, "
            f"{self.num_classes} classes, {self.num_features} features"
        )

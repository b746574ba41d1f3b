"""Loader for the raw Planetoid file format (Yang et al. 2016).

The environment this reproduction was built in has no network access, so
the default datasets are synthetic twins (:mod:`repro.graphs.datasets`).
Users who *do* have the original Planetoid raw files
(``ind.cora.x``, ``ind.cora.tx``, …) can load the real graphs with
:func:`load_planetoid` — the rest of the pipeline is identical.

Format recap (per file, all pickled):

* ``ind.<name>.x``     — csr matrix, training-node features.
* ``ind.<name>.y``     — one-hot labels for the training nodes.
* ``ind.<name>.tx/ty`` — features/labels of the test nodes.
* ``ind.<name>.allx/ally`` — features/labels of all non-test nodes.
* ``ind.<name>.graph`` — dict node → neighbor list.
* ``ind.<name>.test.index`` — plain-text test node ids (may be shuffled
  and, for citeseer, have holes that must be zero-filled).

:func:`write_planetoid_fixture` emits a tiny synthetic dataset in this
exact format — used by the tests and as a format reference.
"""

from __future__ import annotations

import os
import pickle
from typing import Optional

import numpy as np
import scipy.sparse as sp

from repro.graphs.data import Graph


def _read_pickle(path: str):
    with open(path, "rb") as f:
        return pickle.load(f, encoding="latin1")


def load_planetoid(root: str, name: str) -> Graph:
    """Load ``ind.<name>.*`` files from ``root`` into a :class:`Graph`.

    Reproduces the canonical preprocessing: concatenate allx/tx,
    reorder the (possibly shuffled) test rows by ``test.index``,
    zero-fill index holes (the citeseer quirk), symmetrize the adjacency
    and strip self loops.  No masks are attached — the paper re-splits
    1%/20%/20% anyway (:func:`repro.graphs.splits.semi_supervised_split`).
    """
    def path(suffix: str) -> str:
        return os.path.join(root, f"ind.{name}.{suffix}")

    for suffix in ["x", "y", "tx", "ty", "allx", "ally", "graph"]:
        if not os.path.exists(path(suffix)):
            raise FileNotFoundError(path(suffix))

    allx = sp.csr_matrix(_read_pickle(path("allx")))
    tx = sp.csr_matrix(_read_pickle(path("tx")))
    ally = np.asarray(_read_pickle(path("ally")))
    ty = np.asarray(_read_pickle(path("ty")))
    graph_dict = _read_pickle(path("graph"))
    test_idx = np.loadtxt(path("test.index"), dtype=int)
    if test_idx.ndim == 0:
        test_idx = test_idx.reshape(1)

    test_sorted = np.sort(test_idx)
    span = int(test_sorted[-1]) - int(test_sorted[0]) + 1
    # Zero-fill holes in the test range (isolated unlabeled nodes).
    tx_full = sp.lil_matrix((span, tx.shape[1]))
    ty_full = np.zeros((span, ty.shape[1]))
    pos = test_idx - int(test_sorted[0])
    tx_full[pos] = tx
    ty_full[pos] = ty

    x = sp.vstack([allx, tx_full.tocsr()]).tocsr()
    y_onehot = np.vstack([ally, ty_full])
    # Holes have all-zero label rows; argmax gives class 0, matching the
    # reference implementations (those nodes carry no supervision).
    y = y_onehot.argmax(axis=1)

    n = x.shape[0]
    rows, cols = [], []
    for u, nbrs in graph_dict.items():
        for v in nbrs:
            if u < n and v < n and u != v:
                rows.append(u)
                cols.append(v)
    adj = sp.coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    adj = ((adj + adj.T) > 0).astype(np.float64).tocsr()
    adj.setdiag(0)
    adj.eliminate_zeros()

    return Graph(
        x=x,
        adj=adj,
        y=y,
        num_classes=int(y_onehot.shape[1]),
        name=name,
    )


def write_planetoid_fixture(
    root: str,
    name: str = "tiny",
    num_nodes: int = 40,
    num_features: int = 12,
    num_classes: int = 3,
    num_test: int = 10,
    rng: Optional[np.random.Generator] = None,
    shuffle_test: bool = True,
) -> str:
    """Write a small synthetic dataset in the raw Planetoid layout.

    Returns ``root``.  Used by tests; also documents the format.
    """
    gen = rng if rng is not None else np.random.default_rng(0)
    os.makedirs(root, exist_ok=True)
    n_rest = num_nodes - num_test
    labels = gen.integers(0, num_classes, num_nodes)
    feats = (gen.random((num_nodes, num_features)) < 0.2).astype(float)
    onehot = np.eye(num_classes)[labels]

    # A ring plus random chords keeps the graph connected.
    graph_dict = {i: [(i + 1) % num_nodes, (i - 1) % num_nodes] for i in range(num_nodes)}
    for _ in range(num_nodes):
        u, v = gen.integers(0, num_nodes, 2)
        if u != v:
            graph_dict[int(u)].append(int(v))
            graph_dict[int(v)].append(int(u))

    test_ids = np.arange(n_rest, num_nodes)
    if shuffle_test:
        test_ids = gen.permutation(test_ids)

    def dump(suffix, obj):
        with open(os.path.join(root, f"ind.{name}.{suffix}"), "wb") as f:
            pickle.dump(obj, f)

    # Training block = first few nodes (the real format's x ⊂ allx).
    dump("x", sp.csr_matrix(feats[: n_rest // 2]))
    dump("y", onehot[: n_rest // 2])
    dump("allx", sp.csr_matrix(feats[:n_rest]))
    dump("ally", onehot[:n_rest])
    # tx/ty rows follow the (possibly shuffled) test.index order.
    dump("tx", sp.csr_matrix(feats[test_ids]))
    dump("ty", onehot[test_ids])
    dump("graph", graph_dict)
    np.savetxt(os.path.join(root, f"ind.{name}.test.index"), test_ids, fmt="%d")
    return root

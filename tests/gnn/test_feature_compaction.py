"""A feature CSR compacted to its active columns multiplies bitwise like the full one."""

import numpy as np
import pytest

from repro.autograd import Tensor, spmm
from repro.graphs import load_dataset, louvain_partition


@pytest.fixture(scope="module")
def x():
    g = load_dataset("citeseer", seed=1, scale=0.15)
    return louvain_partition(g, 4, np.random.default_rng(1)).parts[2].x


@pytest.fixture(scope="module")
def cols(x):
    cols = np.unique(x.indices)
    assert 0 < len(cols) < x.shape[1]  # the party misses some columns
    return cols


def test_forward_product_is_bitwise(x, cols):
    w = np.random.default_rng(0).standard_normal((x.shape[1], 16))
    xc = x.compact_columns(cols)
    assert xc.shape == (x.shape[0], len(cols))
    np.testing.assert_array_equal(xc.matmul(w[cols]), x.matmul(w))


def test_reverse_product_is_the_active_rows_bitwise(x, cols):
    g = np.random.default_rng(1).standard_normal((x.shape[0], 16))
    full = x.rmatmul(g)
    xc = x.compact_columns(cols)
    np.testing.assert_array_equal(xc.rmatmul(g), full[cols])
    inactive = np.setdiff1d(np.arange(x.shape[1]), cols)
    assert not full[inactive].any()  # exactly 0, not merely small


def test_weight_gradient_through_spmm_is_the_active_rows(x, cols):
    w = np.random.default_rng(2).standard_normal((x.shape[1], 8))
    upstream = np.random.default_rng(3).standard_normal((x.shape[0], 8))
    grads = []
    for op, weight in ((x, w), (x.compact_columns(cols), w[cols])):
        p = Tensor(weight.copy(), requires_grad=True)
        (spmm(op, p) * Tensor(upstream)).sum().backward()
        grads.append(p.grad)
    np.testing.assert_array_equal(grads[1], grads[0][cols])


def test_indices_are_the_ranks_of_the_columns(x, cols):
    xc = x.compact_columns(cols)
    assert x.indices.dtype == xc.indices.dtype == np.int32
    assert xc.indices.tobytes() == np.searchsorted(cols, x.indices).astype(np.int32).tobytes()


def test_compaction_shares_the_value_arrays(x, cols):
    xc = x.compact_columns(cols)
    assert xc.data is x.data and xc.indptr is x.indptr

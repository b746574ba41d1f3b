"""Microbenchmarks of the computational substrate.

Not tied to a specific table; these quantify the primitives every
experiment is built from (and catch performance regressions in the
autograd engine, the spmm hot path, and the moment exchange).
"""

import numpy as np
import scipy.sparse as sp

from repro.autograd import Tensor, matmul, relu, spmm
from repro.core.exchange import MomentExchange
from repro.federated import Communicator
from repro.gnn import OrthoGCN
from repro.graphs.csr import CSRMatrix
from repro.nn import Adam, cross_entropy

RNG = np.random.default_rng(0)


def test_bench_spmm_forward_backward(benchmark):
    """The GCN hot path: S̃ @ X with gradient."""
    s = CSRMatrix.from_scipy(
        sp.random(2000, 2000, density=0.003, random_state=0, format="csr")
    )
    x_data = RNG.standard_normal((2000, 64))

    def step():
        x = Tensor(x_data, requires_grad=True)
        (spmm(s, x) ** 2).sum().backward()
        return x.grad

    benchmark(step)


def test_bench_dense_matmul_backward(benchmark):
    a_data = RNG.standard_normal((1000, 512))
    b_data = RNG.standard_normal((512, 64))

    def step():
        a = Tensor(a_data, requires_grad=True)
        b = Tensor(b_data, requires_grad=True)
        relu(matmul(a, b)).sum().backward()

    benchmark(step)


def test_bench_orthogcn_training_step(benchmark, cora_smoke):
    """One full forward+backward+Adam step of the paper's model."""
    g = cora_smoke
    model = OrthoGCN(g.num_features, g.num_classes, hidden=64, rng=np.random.default_rng(0))
    opt = Adam(model.parameters(), lr=0.01)

    def step():
        opt.zero_grad()
        cross_entropy(model(g), g.y, g.train_mask).backward()
        opt.step()

    benchmark(step)


def test_bench_moment_exchange(benchmark):
    """Algorithm 1's 2-round statistic exchange, 5 clients × 2 layers."""
    hidden = [[RNG.standard_normal((500, 64)) for _ in range(2)] for _ in range(5)]
    counts = [500] * 5

    def step():
        comm = Communicator(num_clients=5)
        return MomentExchange(comm).run(hidden, counts)

    benchmark(step)


def test_bench_louvain_partition(benchmark, cora_smoke):
    from repro.graphs import louvain_partition

    benchmark(lambda: louvain_partition(cora_smoke, 5, np.random.default_rng(0)))

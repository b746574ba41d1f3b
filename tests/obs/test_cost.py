"""Exact-cost assertions for the FLOP/byte model (repro.obs.cost).

Every count here is hand-computed from the operand shapes — the cost
model's contract is exactness, so tests use ``==``, never tolerance.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.autograd import matmul, spmm
from repro.autograd.signatures import cmd_flops, moments_flops
from repro.autograd.tensor import Tensor
from repro.core.cmd import layerwise_cmd
from repro.graphs.csr import CSRMatrix
from repro.obs.cost import (
    CostCollector,
    collecting,
    get_collector,
    matmul_flops,
    set_collector,
    spmm_bytes,
    spmm_flops,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer


@pytest.fixture()
def collected():
    """A live collector over a fresh registry/tracer; uninstalls after."""
    registry, tracer = MetricsRegistry(), Tracer()
    with collecting(registry, tracer) as collector:
        yield registry, tracer, collector
    assert get_collector() is None or get_collector() is not collector


def flops_of(registry, **tags):
    m = registry.get("cost.flops", **tags)
    return m.value if m is not None else None


def bytes_of(registry, **tags):
    m = registry.get("cost.bytes", **tags)
    return m.value if m is not None else None


UNATTRIBUTED = dict(phase="-", client="-", layer="-")


class TestFormulas:
    def test_matmul_flops(self):
        assert matmul_flops(2, 3, 4) == 48

    def test_spmm_flops(self):
        assert spmm_flops(10, 4) == 80

    def test_moments_flops(self):
        # 4 orders over a (5, 3) block: 2·4·15 in either direction.
        assert moments_flops(4, 15) == 120

    def test_cmd_flops(self):
        # 4 orders over a (5, 3) block: moments 120, mean and centring 30,
        # then 5 norm terms of 3 elements at 3 (fwd) or 4 (bwd) FLOPs each.
        assert cmd_flops(4, 5, 3) == 120 + 30 + 45
        assert cmd_flops(4, 5, 3, backward=True) == 120 + 30 + 60

    def test_spmm_bytes(self):
        # 12 bytes per float64 entry with int32 indices + dense + output footprints.
        s = CSRMatrix.from_scipy(sp.random(5, 4, density=0.5, random_state=0, format="csr"))
        assert s.indices.itemsize == 4
        assert spmm_bytes(s, 96, 64) == 12 * s.nnz + 96 + 64
        assert spmm_bytes(s.astype(np.float32), 96, 64) == 8 * s.nnz + 96 + 64


class TestMatmul:
    def test_forward_flops_exact(self, collected):
        registry, _, _ = collected
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.ones((3, 4)), requires_grad=True)
        matmul(a, b)
        # (2,3) @ (3,4): 2·2·3·4 = 48.
        assert flops_of(registry, op="matmul", dir="fwd", **UNATTRIBUTED) == 48
        # fwd bytes: a (48) + b (96) + out (64) float64 footprints.
        assert bytes_of(registry, op="matmul", dir="fwd", **UNATTRIBUTED) == 208

    def test_backward_flops_per_grad_parent(self, collected):
        registry, _, _ = collected
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.ones((3, 4)), requires_grad=True)
        out = matmul(a, b)
        out.backward(np.ones((2, 4)))
        # dA = G@Bᵀ and dB = Aᵀ@G each cost 2·m·k·n: 48 × 2 parents.
        assert flops_of(registry, op="matmul", dir="bwd", **UNATTRIBUTED) == 96

    def test_backward_single_grad_parent(self, collected):
        registry, _, _ = collected
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.ones((3, 4)), requires_grad=False)
        matmul(a, b).backward(np.ones((2, 4)))
        assert flops_of(registry, op="matmul", dir="bwd", **UNATTRIBUTED) == 48


class TestSpmm:
    @pytest.fixture()
    def operator(self):
        s = sp.csr_matrix(
            np.array([[1.0, 0, 2.0], [0, 3.0, 0], [4.0, 0, 5.0]])
        )
        return CSRMatrix.from_scipy(s)  # nnz = 5

    def test_forward_exact(self, collected, operator):
        registry, _, _ = collected
        x = Tensor(np.ones((3, 4)), requires_grad=True)
        spmm(operator, x)
        tags = dict(op="spmm", dir="fwd", **UNATTRIBUTED)
        # 2·nnz·d = 2·5·4 = 40.
        assert flops_of(registry, **tags) == 40
        # 12·nnz + X (3·4·8) + out (3·4·8).
        assert bytes_of(registry, **tags) == 12 * 5 + 96 + 96

    def test_backward_exact(self, collected, operator):
        registry, _, _ = collected
        x = Tensor(np.ones((3, 4)), requires_grad=True)
        spmm(operator, x).backward(np.ones((3, 4)))
        tags = dict(op="spmm", dir="bwd", **UNATTRIBUTED)
        assert flops_of(registry, **tags) == 40

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_prices_the_operands_real_bytes(self, collected, operator, dtype):
        registry, _, _ = collected
        s = operator.astype(dtype)
        x = Tensor(np.ones((3, 4), dtype=dtype), requires_grad=True)
        out = spmm(s, x)
        out.backward(np.ones((3, 4), dtype=dtype))
        entries = s.data.nbytes + s.indices.nbytes
        for direction, sparse in (("fwd", s), ("bwd", s)):
            assert sparse.data.nbytes + sparse.indices.nbytes == entries
            tags = dict(op="spmm", dir=direction, **UNATTRIBUTED)
            assert bytes_of(registry, **tags) == entries + x.data.nbytes + out.data.nbytes

    def test_not_double_counted_by_generic_hook(self, collected, operator):
        """spmm is EXPLICIT: the shape hook must not add a second record."""
        registry, _, _ = collected
        x = Tensor(np.ones((3, 4)), requires_grad=True)
        spmm(operator, x)
        spmm_keys = [k for k in registry.names() if "op=spmm" in k]
        # one flops + one bytes counter, single tag set.
        assert len(spmm_keys) == 2


class TestElementwiseAndShape:
    def test_elementwise_one_flop_per_output(self, collected):
        registry, _, _ = collected
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        (a + a).backward(np.ones((2, 3)))
        assert flops_of(registry, op="add", dir="fwd", **UNATTRIBUTED) == 6
        # backward: one pass per grad-requiring parent edge (same tensor
        # twice → counted once per parent entry with requires_grad).
        assert flops_of(registry, op="add", dir="bwd", **UNATTRIBUTED) == 12

    def test_transpose_is_zero_flop(self, collected):
        registry, _, _ = collected
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        a.T.backward(np.ones((3, 2)))
        assert flops_of(registry, op="transpose", dir="fwd", **UNATTRIBUTED) == 0
        assert flops_of(registry, op="transpose", dir="bwd", **UNATTRIBUTED) == 0
        # bytes still move even at zero FLOPs.
        assert bytes_of(registry, op="transpose", dir="fwd", **UNATTRIBUTED) > 0


class TestCentralMoments:
    """The fused Eq. 11 op (``cmd``), which carries the central moments."""

    @pytest.mark.parametrize("orders", [(2, 3, 4, 5), (2, 5)])
    def test_forward_and_backward_match_signature(self, collected, orders):
        registry, _, _ = collected
        k, n, dims = len(orders), 5, (3, 2)
        zs = [
            Tensor(np.linspace(-1.0, 1.0, n * d).reshape(n, d), requires_grad=True)
            for d in dims
        ]
        # The second layer is a constant: only the first has a backward.
        zs[1].requires_grad = False
        means = [np.zeros(d) for d in dims]
        moments = [[np.full(d, 0.5)] * k for d in dims]
        out = layerwise_cmd(zs, means, moments, orders=orders)
        out.backward()
        want_fwd = cmd_flops(k, n, dims[0]) + cmd_flops(k, n, dims[1])
        assert flops_of(registry, op="cmd", dir="fwd", **UNATTRIBUTED) == want_fwd
        want_bwd = cmd_flops(k, n, dims[0], backward=True)
        assert flops_of(registry, op="cmd", dir="bwd", **UNATTRIBUTED) == want_bwd
        # fwd bytes: each layer's (n, d) activations and (K+1, d) targets
        # read, the scalar written; bwd: the scalar gradient read, the
        # first layer's (n, d) gradient written.
        assert bytes_of(registry, op="cmd", dir="fwd", **UNATTRIBUTED) == (
            8 * (sum(n * d + (k + 1) * d for d in dims) + 1)
        )
        assert bytes_of(registry, op="cmd", dir="bwd", **UNATTRIBUTED) == 8 * (1 + n * dims[0])


class TestUnpricedOp:
    def test_undeclared_op_raises_naming_the_fix(self, collected):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        message = r"'mystery_tanh'.*declare it in repro\.autograd\.signatures"
        with pytest.raises(KeyError, match=message):
            Tensor._make(np.tanh(a.data), (a,), lambda g: None, "mystery_tanh")


class TestAttribution:
    def test_phase_and_client_from_active_span(self, collected):
        registry, tracer, _ = collected
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        with tracer.span("task", phase="train", client=1):
            a + a
        assert (
            flops_of(registry, op="add", dir="fwd", phase="train", client="1", layer="-")
            == 4
        )

    def test_phase_falls_back_to_span_name(self, collected):
        registry, tracer, _ = collected
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        with tracer.span("eval"):
            a + a
        assert (
            flops_of(registry, op="add", dir="fwd", phase="eval", client="-", layer="-")
            == 4
        )

    def test_layer_scope(self, collected):
        registry, _, collector = collected
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        with collector.layer("fc1"):
            a + a
        assert (
            flops_of(registry, op="add", dir="fwd", phase="-", client="-", layer="fc1")
            == 4
        )

    def test_module_call_enters_registered_name(self, collected):
        registry, _, _ = collected
        from repro.nn.linear import Linear

        lin = Linear(3, 2, rng=np.random.default_rng(0))
        # Simulate registration: Module.__setattr__/add_module stamp it.
        object.__setattr__(lin, "_obs_name", "encoder")
        lin(Tensor(np.ones((4, 3)), requires_grad=True))
        layer_keys = [k for k in registry.names() if "layer=encoder" in k]
        assert layer_keys, registry.names()


class TestLifecycle:
    def test_collecting_restores_previous(self):
        registry, tracer = MetricsRegistry(), Tracer()
        outer = CostCollector(registry, tracer)
        prev = set_collector(outer)
        try:
            with collecting(registry, tracer) as inner:
                assert get_collector() is inner
            assert get_collector() is outer
        finally:
            set_collector(prev)

    def test_off_means_no_counters(self):
        registry = MetricsRegistry()
        assert get_collector() is None
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        (a + a).backward(np.ones((2, 2)))
        assert registry.names() == []

"""Per-op cost signatures — one table of closed-form FLOP/byte formulas.

Every autograd op name is declared here exactly once, with its **cost
kind** (which closed-form FLOP/byte formula applies).  Its readers are

* :mod:`repro.obs.cost` — the runtime cost model.  Its collector calls
  :func:`forward_flops` / :func:`backward_flops` / :func:`forward_bytes`
  / :func:`backward_bytes` with real ndarrays, and :func:`lookup` raises
  ``KeyError`` on an op nobody declared, so a profiled run cannot drop
  an op from the accounting.
* the trace-check test (``tests/analysis/test_shapes.py``), which runs
  every model once under the collector and compares its per-layer
  ``matmul`` / ``spmm`` counts with :func:`matmul_flops` /
  :func:`spmm_flops` at the graph's dimensions.

The formulas are pure arithmetic over ``.shape`` / ``.size`` /
``.nbytes``, so this module never imports numpy.  Every module that
builds a ``Tensor._make`` node (each ``ops_*`` module, ``repro.core.cmd``
and ``repro.gnn.models``) closes the loop at import time with :func:`expect`,
which fails fast if an op it constructs was never declared.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

#: Ops that report their own cost at the op site (they need operand
#: metadata — nnz — the generic shape-based hook cannot see).
EXPLICIT_OPS = frozenset({"spmm"})

#: Cost kinds.  Forward/backward FLOPs per kind (``out`` the result,
#: ``p`` a parent, grad-requiring parents only in backward):
#:
#: ==============  ======================  ============================
#: kind            forward FLOPs           backward FLOPs
#: ==============  ======================  ============================
#: ``matmul``      ``2·m·k·n``             ``2·m·k·n`` per grad parent
#: ``spmm``        ``2·nnz·d``             ``2·nnz·d`` (explicit site)
#: ``elementwise`` ``out.size``            ``Σ p.size``
#: ``reduce``      ``Σ p.size``            ``Σ p.size``
#: ``softmax``     ``4·out.size``          ``3·out.size`` per grad parent
#: ``cmd``         Σ per layer, see        Σ per grad layer, see
#:                 :func:`cmd_flops`       :func:`cmd_flops`
#: ``zero``        ``0``                   ``0``
#: ==============  ======================  ============================
#:
#: ``cmd`` is the fused Eq. 11 op (``repro.core.cmd.layerwise_cmd``).
#: Its parents alternate each layer's ``(n, d)`` activations and its
#: ``(K+1, d)`` targets (the mean, then one row per order), so ``K`` is
#: read off the targets.  The ladder part is exact for contiguous
#: orders starting at 2 (the paper's 2..5); other order sets build the
#: ``max(orders)`` power ladder and the formula is an accounting
#: approximation for them.
KINDS = ("matmul", "spmm", "elementwise", "reduce", "softmax", "cmd", "zero")


@dataclass(frozen=True)
class OpSignature:
    """Declared contract of one autograd op."""

    name: str
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown cost kind {self.kind!r} for op {self.name!r}")


SIGNATURES: Dict[str, OpSignature] = {}


def declare(name: str, kind: str) -> OpSignature:
    """Register one op signature (import-time, idempotent re-declaration is an error)."""
    if name in SIGNATURES:
        raise ValueError(f"op {name!r} declared twice")
    sig = OpSignature(name=name, kind=kind)
    SIGNATURES[name] = sig
    return sig


def canonical_op(op: str) -> str:
    """Map a runtime op name to its table key (``pow2.0`` → ``pow``)."""
    if op.startswith("pow") and op != "pow":
        return "pow"
    return op


def lookup(op: str) -> OpSignature:
    """Signature for a runtime op name; raises ``KeyError`` when undeclared."""
    try:
        return SIGNATURES[canonical_op(op)]
    except KeyError:
        raise KeyError(
            f"op {op!r} has no cost signature; declare it in repro.autograd.signatures"
        ) from None


def has_signature(op: str) -> bool:
    return canonical_op(op) in SIGNATURES


def expect(*names: str) -> None:
    """Import-time check an ops module runs over the op names it constructs."""
    missing = [n for n in names if not has_signature(n)]
    if missing:
        raise RuntimeError(
            f"autograd ops missing a signature declaration: {missing}; "
            "declare them in repro.autograd.signatures"
        )


# ----------------------------------------------------------------------
# the table — grouped to mirror the ops_* modules
# ----------------------------------------------------------------------
# ops_basic
declare("add", "elementwise")
declare("sub", "elementwise")
declare("mul", "elementwise")
declare("div", "elementwise")
declare("neg", "zero")
declare("pow", "elementwise")  # runtime names are pow{exponent}
declare("exp", "elementwise")
declare("log", "elementwise")
declare("sqrt", "elementwise")
declare("clip", "elementwise")
declare("abs", "elementwise")
declare("maximum", "elementwise")

# ops_matmul
declare("matmul", "matmul")
declare("spmm", "spmm")
declare("transpose", "zero")

# ops_nn
declare("relu", "elementwise")
declare("leaky_relu", "elementwise")
declare("sigmoid", "elementwise")
declare("tanh", "elementwise")
declare("softmax", "softmax")
declare("log_softmax", "softmax")
declare("dropout", "zero")

# ops_reduce
declare("sum", "reduce")
declare("mean", "reduce")
declare("max", "reduce")
declare("l2_norm", "elementwise")  # one-FLOP accounting unit

# ops_shape
declare("reshape", "zero")
declare("getitem", "zero")
declare("scatter_add", "elementwise")
declare("concat", "zero")
declare("stack", "zero")

# repro.core.cmd, and repro.gnn.models' OrthoGCN input layer (its products price as spmm)
declare("cmd", "cmd")
declare("gcn_relu", "elementwise")


# ----------------------------------------------------------------------
# cost formulas — evaluated by the runtime collector on real ndarrays
# ----------------------------------------------------------------------
def matmul_flops(m, k, n):
    """FLOPs of one ``(m, k) @ (k, n)`` dense product: ``2·m·k·n``."""
    return 2 * m * k * n


def spmm_flops(nnz, d):
    """FLOPs of one ``S @ X`` sparse product: ``2·nnz·d`` (mul + add)."""
    return 2 * nnz * d


def spmm_bytes(s, dense_bytes, out_bytes):
    """Bytes moved by one SpMM: sparse entries + dense read + out write.

    A stored entry of the CSR operand ``s`` is its value and its column
    index, at their own item sizes (a float32 operand moves a third
    fewer bytes than a float64 one); ``indptr`` is O(rows) and excluded.
    """
    return (s.data.itemsize + s.indices.itemsize) * s.nnz + dense_bytes + out_bytes


def moments_flops(num_orders, size):
    """FLOPs of ``K`` central moments of an ``(n, d)`` block, either direction:
    ``2·K·n·d`` (forward one product and one node reduction per order,
    backward one multiply and one add per order)."""
    return 2 * num_orders * size


def cmd_flops(num_orders, n, d, backward=False):
    """FLOPs of one layer of the fused Eq. 11 op: ``K`` orders over ``(n, d)``.

    Forward ``2·K·n·d + 2·n·d + 3·(K+1)·d``: the moments, the node mean
    and the centring, then per norm term the difference, the square and
    the sum.  Backward ``2·K·n·d + 2·n·d + 4·(K+1)·d``: the moments'
    VJP, the row sum of ``dc`` and the mean gradient's add, then per
    term the gradient's scale and divide and per order its ``j/n``
    factor (two each), and ``(v_0 − Σ)/n``.
    """
    per_term = 4 if backward else 3
    return moments_flops(num_orders, n * d) + 2 * n * d + per_term * (num_orders + 1) * d


def _cmd_layers(parents):
    """``(z, targets)`` pairs of a ``cmd`` op's alternating parents."""
    return zip(parents[0::2], parents[1::2])


def forward_flops(op: str, out, parents: Sequence):
    """Forward FLOPs of one generic (non-``spmm``) op from operand shapes."""
    kind = lookup(op).kind
    if kind == "matmul":
        a, b = parents
        return matmul_flops(a.shape[0], a.shape[1], b.shape[1])
    if kind == "cmd":
        total = 0
        for z, t in _cmd_layers(parents):
            total = total + cmd_flops(t.shape[0] - 1, z.shape[0], z.shape[1])
        return total
    if kind == "zero":
        return 0
    if kind == "reduce":
        total = 0
        for p in parents:
            total = total + p.size
        return total
    if kind == "softmax":
        return 4 * out.size
    # Elementwise default (add, mul, relu, exp, …): one FLOP per output.
    return out.size


def backward_flops(op: str, out, parents: Sequence, grad_parents: Sequence):
    """Backward FLOPs of one generic op (``grad_parents`` require grad)."""
    kind = lookup(op).kind
    if kind == "matmul":
        a, b = parents
        return matmul_flops(a.shape[0], a.shape[1], b.shape[1]) * len(grad_parents)
    if kind == "zero":
        return 0
    if kind == "softmax":
        return 3 * out.size * len(grad_parents)
    if kind == "cmd":
        total = 0
        for z, t in _cmd_layers(parents):
            if any(z is g for g in grad_parents):
                total = total + cmd_flops(t.shape[0] - 1, z.shape[0], z.shape[1], backward=True)
        return total
    # Reductions broadcast the gradient back over the input; elementwise
    # ops do one multiply per input element.  Both are p.size per parent.
    total = 0
    for p in grad_parents:
        total = total + p.size
    return total


def forward_bytes(out, parents: Sequence):
    """Forward traffic: read every parent, write the output."""
    total = out.nbytes
    for p in parents:
        total = total + p.nbytes
    return total


def backward_bytes(out, grad_parents: Sequence):
    """Backward traffic: read the output gradient, write one gradient per parent."""
    total = out.nbytes
    for p in grad_parents:
        total = total + p.nbytes
    return total


__all__ = [
    "EXPLICIT_OPS",
    "KINDS",
    "OpSignature",
    "SIGNATURES",
    "declare",
    "canonical_op",
    "lookup",
    "has_signature",
    "expect",
    "matmul_flops",
    "spmm_flops",
    "spmm_bytes",
    "moments_flops",
    "cmd_flops",
    "forward_flops",
    "backward_flops",
    "forward_bytes",
    "backward_bytes",
]

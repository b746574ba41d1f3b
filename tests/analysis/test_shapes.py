"""Concrete trace check of the model zoo.

Every model runs one real forward and backward pass on two tiny DC-SBM
graphs of different size, inside

* ``SanitizerSession()`` — dtype drift, non-finite values and in-place
  mutation of a captured input raise, and
* ``cost.collecting(...)`` — an op with no declared signature in
  ``repro.autograd.signatures`` raises ``KeyError``.

The checks: output shapes match the model table, every op is priced,
and for ``gcn`` / ``orthogcn`` / ``gat`` the collector's per-layer
``matmul`` / ``spmm`` FLOPs equal ``matmul_flops`` / ``spmm_flops`` at
each graph's dimensions.
"""

import importlib
from collections import Counter

import numpy as np
import pytest

from repro.analysis.sanitize import SanitizerSession
from repro.autograd import Tensor
from repro.autograd.signatures import matmul_flops, spmm_flops
from repro.graphs.data import Graph
from repro.graphs.sbm import dc_sbm
from repro.nn.module import Module
from repro.obs import cost
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer


# ----------------------------------------------------------------------
# the model table
# ----------------------------------------------------------------------
#: name -> (class, __init__ kwargs, forward inputs, output shapes).  A
#: string in the kwargs or shapes is a dimension of the graph (see
#: ``GRAPHS``); every class also gets a seeded ``rng``.
_GRAPH_MODEL = {"in_features": "d_in", "num_classes": "c", "hidden": "d_hidden"}
SPECS = {
    "mlp": ("repro.gnn.models.MLP", _GRAPH_MODEL, "graph", [("n", "c")]),
    "gcn": ("repro.gnn.models.GCN", _GRAPH_MODEL, "graph", [("n", "c")]),
    "sgc": ("repro.gnn.models.SGC", {"in_features": "d_in", "num_classes": "c", "k": 2},
            "graph", [("n", "c")]),
    "sage": ("repro.gnn.models.SAGE", _GRAPH_MODEL, "graph", [("n", "c")]),
    "appnp": ("repro.gnn.models.APPNP", _GRAPH_MODEL, "graph", [("n", "c")]),
    "gat": ("repro.gnn.models.GAT", _GRAPH_MODEL, "graph", [("n", "c")]),
    "orthogcn": ("repro.gnn.models.OrthoGCN", _GRAPH_MODEL, "graph", [("n", "c")]),
    "linear": ("repro.nn.linear.Linear", {"in_features": "d_in", "out_features": "c"},
               "x", [("n", "c")]),
    "gcnconv": ("repro.gnn.gcn_conv.GCNConv",
                {"in_features": "d_in", "out_features": "d_hidden"},
                "sparse_x", [("n", "d_hidden")]),
    # Same class with in/out swapped: the two graphs then take opposite
    # transform-order branches from the "gcnconv" entry.
    "gcnconv_expand": ("repro.gnn.gcn_conv.GCNConv",
                       {"in_features": "d_hidden", "out_features": "d_in"},
                       "sparse_h", [("n", "d_in")]),
    "orthoconv": ("repro.gnn.ortho.OrthoConv", {"features": "d_hidden"},
                  "sparse_h", [("n", "d_hidden")]),
    "sageconv": ("repro.gnn.sage_conv.SAGEConv",
                 {"in_features": "d_in", "out_features": "d_hidden"},
                 "mean_x", [("n", "d_hidden")]),
    "gatconv": ("repro.gnn.gat_conv.GATConv",
                {"in_features": "d_in", "out_features": "d_hidden"},
                "edges_x", [("n", "d_hidden")]),
    "neighgen": ("repro.baselines.fedsage.NeighGen",
                 {"in_features": "d_in", "hidden": "d_hidden"},
                 "mean_x", [("n", 1), ("n", "d_in")]),
    "typedgcn": ("repro.baselines.fedlit._TypedGCN",
                 {"in_features": "d_in", "num_classes": "c", "hidden": "d_hidden", "k": 2},
                 "slist_x", [("n", "c")]),
}

#: Forward inputs per table entry, from the graph and a hidden-width
#: activation ``h``.
INPUTS = {
    "graph": lambda g, h: (g,),
    "x": lambda g, h: (Tensor(g.x.toarray()),),
    "sparse_x": lambda g, h: (g.s_op, Tensor(g.x.toarray())),
    "sparse_h": lambda g, h: (g.s_op, h),
    "mean_x": lambda g, h: (g.mean_op, Tensor(g.x.toarray())),
    "edges_x": lambda g, h: (g.edge_index, Tensor(g.x.toarray())),
    "slist_x": lambda g, h: ([g.s_op, g.s_op], Tensor(g.x.toarray())),
}

#: Two graphs that differ in every dimension.  ``d_hidden`` lies between
#: the two ``d_in`` values, so GCNConv(d_in -> d_hidden) transforms first
#: on the first graph and propagates first on the second.
GRAPHS = [
    {"blocks": [8, 8], "d_in": 12, "d_hidden": 8, "seed": 7},
    {"blocks": [8, 8, 8], "d_in": 6, "d_hidden": 10, "seed": 8},
]


@pytest.fixture(scope="module")
def graphs():
    out = []
    for spec in GRAPHS:
        rng = np.random.default_rng(spec["seed"])
        adj, y = dc_sbm(np.array(spec["blocks"]), 0.6, 0.15, rng)
        n = int(sum(spec["blocks"]))
        g = Graph(
            x=rng.standard_normal((n, spec["d_in"])),
            adj=adj,
            y=y,
            num_classes=len(spec["blocks"]),
        )
        dims = {
            "n": n,
            "d_in": spec["d_in"],
            "d_hidden": spec["d_hidden"],
            "c": g.num_classes,
            "nnz": int(g.s_op.nnz),
            "nnz_x": int(g.x.nnz),
        }
        out.append((g, dims))
    return out


def build(name, g, dims):
    """The model of table entry ``name`` and its forward inputs on ``g``."""
    qualname, init, inputs, _ = SPECS[name]
    module, _, cls = qualname.rpartition(".")
    kwargs = {k: dims[v] if isinstance(v, str) else v for k, v in init.items()}
    model = getattr(importlib.import_module(module), cls)(
        rng=np.random.default_rng(1), **kwargs
    )
    h = Tensor(np.random.default_rng(2).standard_normal((dims["n"], dims["d_hidden"])))
    return model, INPUTS[inputs](g, h)


def trace(model, args):
    """One sanitized, cost-collected forward + backward; (outputs, registry)."""
    registry = MetricsRegistry()
    with SanitizerSession(), cost.collecting(registry, Tracer()):
        out = model(*args)
        outputs = out if isinstance(out, tuple) else (out,)
        for t in outputs:
            t.backward(np.ones_like(t.data))
    return outputs, registry


def measured_flops(registry):
    """The collector's matmul/spmm FLOPs keyed by (op, dir, layer)."""
    table = Counter()
    for ev in registry.events():
        tags = ev["tags"]
        if ev["name"] == "cost.flops" and tags["op"] in ("matmul", "spmm"):
            table[tags["op"], tags["dir"], tags["layer"]] += ev["value"]
    return table


# ----------------------------------------------------------------------
# shapes, sanitizers, pricing
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(SPECS), ids=sorted(SPECS))
def test_derived_shapes_match_real_forward(name, graphs):
    """The table's output shapes, evaluated at each graph's dims, equal
    the real forward's; the sanitized backward runs and every op is priced."""
    for g, dims in graphs:
        model, args = build(name, g, dims)
        outputs, registry = trace(model, args)
        expected = [tuple(dims.get(d, d) for d in shape) for shape in SPECS[name][3]]
        assert [t.shape for t in outputs] == expected
        recorded = {ev["tags"]["dir"] for ev in registry.events() if ev["name"] == "cost.flops"}
        assert recorded == {"fwd", "bwd"}


class _Unpriced(Module):
    """A layer minting an op that has no declared cost signature."""

    def forward(self, x):
        return Tensor._make(np.tanh(x.data), (x,), lambda grad: None, "mystery_tanh")


def test_undeclared_op_fails_the_trace():
    x = Tensor(np.ones((4, 3)), requires_grad=True)
    with pytest.raises(KeyError, match="declare it in repro.autograd.signatures"):
        trace(_Unpriced(), (x,))


# ----------------------------------------------------------------------
# cost oracle: collector counts == signature formulas
# ----------------------------------------------------------------------
def expected_flops(name, dims):
    """matmul/spmm FLOPs the signatures predict, keyed by (op, dir, layer).

    Backward ops run outside any ``Module.__call__`` scope, so they land
    on layer ``-``.  Raw features never require grad.
    """
    n, nnz, nnz_x = dims["n"], dims["nnz"], dims["nnz_x"]
    h, c = dims["d_hidden"], dims["c"]
    table = Counter()

    def dense(layer, d_in, d_out, input_grad):
        mm = matmul_flops(n, d_in, d_out)
        table["matmul", "fwd", layer] += mm
        table["matmul", "bwd", "-"] += mm * (2 if input_grad else 1)

    def gcn_conv(layer, d_in, d_out, input_grad):
        dense(layer, d_in, d_out, input_grad)
        # GCNConv transforms first unless that widens the propagated
        # operand; spmm then runs on the narrower side.
        transform_first = d_out <= d_in
        width = d_out if transform_first else d_in
        table["spmm", "fwd", layer] += spmm_flops(nnz, width)
        if transform_first or input_grad:
            table["spmm", "bwd", "-"] += spmm_flops(nnz, width)

    def sparse_in(layer, d_out):
        # X W on the sparse features is an spmm, and the weight gradient
        # Xᵀ·G is another on X's reverse CSR.
        table["spmm", "fwd", layer] += spmm_flops(nnz_x, d_out)
        table["spmm", "bwd", "-"] += spmm_flops(nnz_x, d_out)

    def sparse_gcn_conv(layer, d_out):
        # S̃ (X W): the feature product, then propagation.
        sparse_in(layer, d_out)
        table["spmm", "fwd", layer] += spmm_flops(nnz, d_out)
        table["spmm", "bwd", "-"] += spmm_flops(nnz, d_out)

    # Every first layer takes the sparse features.
    if name == "gcn":
        sparse_gcn_conv("conv1", h)
        gcn_conv("conv2", h, c, input_grad=True)
    elif name == "orthogcn":
        sparse_gcn_conv("conv_in", h)
        dense("ortho0", h, h, input_grad=True)  # OrthoConv: S̃ (Z W̃)
        table["spmm", "fwd", "ortho0"] += spmm_flops(nnz, h)
        table["spmm", "bwd", "-"] += spmm_flops(nnz, h)
        gcn_conv("conv_out", h, c, input_grad=True)
    elif name == "gat":
        sparse_in("conv1", h)
        dense("conv2", h, c, input_grad=True)
    return table


@pytest.mark.parametrize("name", ["gcn", "orthogcn", "gat"])
def test_cost_oracle_equals_instrumented_run(name, graphs):
    tables = []
    for g, dims in graphs:
        _, registry = trace(*build(name, g, dims))
        measured = measured_flops(registry)
        assert measured == expected_flops(name, dims)
        tables.append(measured)
    # Every dimension differs between the graphs, so a constant table
    # cannot pass both.
    assert tables[0] != tables[1]

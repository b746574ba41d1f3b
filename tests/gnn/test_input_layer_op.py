"""OrthoGCN's input layer ``relu(S̃ (X W) + b)`` recorded as one op.

``OrthoGCN.input_layer`` runs ``conv_in`` unrecorded and keeps only the
layer's output and relu mask; its backward replays the chain's products.
The chain ``relu(conv_in(S̃, X))`` stays the bitwise oracle for the value
and every parameter's gradient, in both dtypes, also where the layer
feeds two consumers (the next layer and the moment loss).
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.autograd import Tensor, gradcheck, relu
from repro.gnn import OrthoGCN
from repro.graphs import Graph, load_dataset
from repro.nn import cross_entropy


def chain(model, graph):
    return relu(model.conv_in(graph.s_op, graph.x))


def small_graph(dtype, n=12, feats=5, seed=0):
    rng = np.random.default_rng(seed)
    adj = sp.random(n, n, density=0.3, random_state=seed, format="csr")
    adj = ((adj + adj.T) > 0).astype(np.float64)
    adj.setdiag(0)
    adj.eliminate_zeros()
    x = rng.standard_normal((n, feats)) * (rng.random((n, feats)) < 0.5)
    return Graph(x=x.astype(dtype), adj=sp.csr_matrix(adj), y=rng.integers(0, 3, n),
                 num_classes=3, train_mask=np.ones(n, dtype=bool))


def gradients(model, graph, layer):
    """Value of ``layer`` and every parameter's gradient of a loss that
    reads the layer twice: through the network and directly."""
    model.zero_grad()
    model._rng = np.random.default_rng(7)  # the same dropout masks
    first = layer(model, graph)
    logits, hidden = model.forward_with_hidden(graph, first)
    loss = cross_entropy(logits, graph.y, graph.train_mask) + (hidden[0] * hidden[0]).mean()
    loss.backward()
    return first.data, {name: p.grad.copy() for name, p in model.named_parameters()}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("seed", range(3))
def test_value_and_gradients_are_the_chains_bitwise(dtype, seed):
    graph = load_dataset("cora", seed=seed, scale=0.1, dtype=dtype)
    model = OrthoGCN(graph.num_features, graph.num_classes, hidden=16,
                     rng=np.random.default_rng(seed)).astype(dtype)
    model.train()
    got_value, got = gradients(model, graph, OrthoGCN.input_layer)
    want_value, want = gradients(model, graph, chain)
    assert got_value.dtype == dtype
    assert got_value.tobytes() == want_value.tobytes()
    assert (got_value > 0).any() and (got_value == 0).any()
    assert got.keys() == want.keys()
    for name in want:
        assert got[name].tobytes() == want[name].tobytes(), name


def test_float64_gradcheck():
    graph = small_graph(np.float64)
    model = OrthoGCN(graph.num_features, 3, hidden=4, rng=np.random.default_rng(1))
    model.conv_in.bias.data[:] = np.random.default_rng(2).standard_normal(4) * 0.3
    weights = Tensor(np.random.default_rng(3).standard_normal((graph.num_nodes, 4)))
    conv = model.conv_in
    assert gradcheck(lambda w, b: (model.input_layer(graph) * weights).sum(),
                     [conv.weight, conv.bias])


def test_the_op_pins_only_its_output_and_mask():
    graph = small_graph(np.float32)
    model = OrthoGCN(graph.num_features, 3, hidden=4, rng=np.random.default_rng(1))
    model.astype(np.float32)
    first = model.input_layer(graph)
    assert first._op == "gcn_relu"
    assert first._parents == (model.conv_in.weight, model.conv_in.bias)
    held = [c.cell_contents for c in first._backward.__closure__]
    arrays = [a for a in held if isinstance(a, np.ndarray)]
    assert len(arrays) == 1 and arrays[0].dtype == bool
    assert arrays[0].shape == first.shape

"""RL015 fixture: raw Tensor._make ops the cost model cannot price."""
import numpy as np

from repro.autograd import Tensor


def mint_raw_node(a):
    out = np.tanh(a.data)

    def backward(grad):
        if a.requires_grad:
            a._accumulate(grad * (1.0 - out * out))

    return Tensor._make(out, (a,), backward, "mystery_tanh")  # VIOLATION RL015


def mint_raw_node_suppressed(a):
    out = np.tanh(a.data)

    def backward(grad):
        if a.requires_grad:
            a._accumulate(grad * (1.0 - out * out))

    return Tensor._make(out, (a,), backward, "mystery_tanh")  # repro-lint: disable=RL015

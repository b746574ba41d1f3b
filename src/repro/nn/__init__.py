"""Neural-network building blocks on top of :mod:`repro.autograd`.

Provides the ``Module``/``Parameter`` abstraction (with the flat
``state_dict`` the federated server aggregates), layer initializers
matching the paper's assumptions (§4.3 appeals to Xavier/He Gaussian
initialization), the loss functions of Eq. 12, and the Adam optimizer.
"""

from repro.nn.module import Module, Parameter
from repro.nn.linear import Linear
from repro.nn import init
from repro.nn.losses import (
    cross_entropy,
    nll_loss,
    mse_loss,
    orthogonality_loss,
    accuracy,
)
from repro.nn.optim import Adam
from repro.nn.serialize import load_checkpoint, load_state, save_checkpoint, save_state

__all__ = [
    "load_checkpoint",
    "load_state",
    "save_checkpoint",
    "save_state",
    "Module",
    "Parameter",
    "Linear",
    "init",
    "cross_entropy",
    "nll_loss",
    "mse_loss",
    "orthogonality_loss",
    "accuracy",
    "Adam",
]

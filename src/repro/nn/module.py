"""``Module`` / ``Parameter``: the trainable-component abstraction.

The federated runtime relies on two contracts here:

* ``state_dict()`` / ``load_state_dict()`` move *values* (plain ndarrays,
  copied) in and out — this is exactly what FedAvg averages and what the
  simulated network transports, so payload sizes can be metered.
* ``parameters()`` yields live :class:`Parameter` objects in a stable
  order for the optimizers.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.autograd.tensor import Tensor
from repro.obs import cost as _cost
from repro.obs.metrics import get_registry


class Parameter(Tensor):
    """A tensor registered as trainable state of a :class:`Module`."""

    def __init__(self, data) -> None:
        super().__init__(data, requires_grad=True)


class Module:
    """Base class for layers and models.

    Subclasses assign :class:`Parameter` and ``Module`` instances as
    attributes; registration is automatic via ``__setattr__`` (same
    ergonomics as ``torch.nn.Module``).  Lists of submodules must use
    :meth:`add_module` (we keep the implementation minimal — no
    ``ModuleList``).
    """

    def __init__(self) -> None:
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_modules", {})
        object.__setattr__(self, "training", True)

    # -- registration ----------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._params[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
            object.__setattr__(value, "_obs_name", name)
        object.__setattr__(self, name, value)

    def add_module(self, name: str, module: "Module") -> "Module":
        """Register a dynamically-created submodule (e.g. layer lists)."""
        self._modules[name] = module
        object.__setattr__(module, "_obs_name", name)
        object.__setattr__(self, name, module)
        return module

    # -- traversal --------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` in deterministic order."""
        for name, p in self._params.items():
            yield (f"{prefix}{name}", p)
        for mod_name, mod in self._modules.items():
            yield from mod.named_parameters(prefix=f"{prefix}{mod_name}.")

    def parameters(self) -> List[Parameter]:
        """All parameters as a list (stable order)."""
        return [p for _, p in self.named_parameters()]

    def modules(self) -> Iterator["Module"]:
        """Yield self and all descendants."""
        yield self
        for mod in self._modules.values():
            yield from mod.modules()

    def num_parameters(self) -> int:
        """Total scalar parameter count (used for payload accounting)."""
        return sum(p.size for p in self.parameters())

    # -- train / eval ------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        """Set training mode recursively (affects dropout)."""
        for m in self.modules():
            object.__setattr__(m, "training", mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def astype(self, dtype) -> "Module":
        """Cast every parameter to ``dtype`` in place; returns ``self``.

        A run casts its freshly initialised model once, before any
        optimizer is built over it, so Adam's moments follow.
        """
        for p in self.parameters():
            p.data = p.data.astype(dtype, copy=False)
        return self

    # -- state dict ---------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Copy of all parameter values keyed by dotted name."""
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray], strict: bool = True) -> None:
        """Load values in-place (the FL 'download global model' step)."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if strict and (missing or unexpected):
            raise KeyError(f"state mismatch: missing={sorted(missing)} unexpected={sorted(unexpected)}")
        for name, p in own.items():
            if name in state:
                val = np.asarray(state[name], dtype=p.data.dtype)
                if val.shape != p.data.shape:
                    raise ValueError(f"shape mismatch for {name}: {val.shape} vs {p.data.shape}")
                p.data[...] = val

    # -- gradients ------------------------------------------------------------
    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def grad_dict(self) -> Dict[str, np.ndarray]:
        """Copy of current gradients (zeros when a parameter has none)."""
        return {
            name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
            for name, p in self.named_parameters()
        }

    # -- call ---------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.call(self.forward, *args, **kwargs)

    def call(self, method, *args, **kwargs):
        """Run ``method`` (a forward of this module, e.g. its bound
        ``forward_with_hidden``) with the accounting of ``__call__``:
        the ``nn.forward_calls`` counter and the cost collector's layer
        scope."""
        reg = get_registry()
        if reg.enabled:
            reg.counter("nn.forward_calls", module=type(self).__name__).inc()
        cc = _cost._collector
        if cc is None:
            return method(*args, **kwargs)
        # Attribute ops run inside this module to its registered name
        # (`layers.0`, `classifier`), falling back to the class name for
        # root modules nobody registered.
        label = getattr(self, "_obs_name", None) or type(self).__name__
        with cc.layer(label):
            return method(*args, **kwargs)

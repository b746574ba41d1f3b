"""The Adam optimizer, with weight decay.

Weight decay is L2-coupled: ``wd·w`` is added to the gradient before
the moment estimates (as ``torch.optim.Adam``'s ``weight_decay`` does),
not applied to the weights separately as in AdamW.  This matches the GCN reference implementations with
``weight_decay=1e-4`` as the paper fixes.

Adam's update runs through ``out=`` into two scratch buffers per
parameter shape, shared by every optimizer on the same thread, so a
step allocates nothing weight-sized: on the Coauthor-CS input weight the
temporaries it would otherwise allocate and free are several MB each,
every step of every client.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Tuple

import numpy as np

from repro.nn.module import Parameter

#: Per-thread ``(shape, dtype) -> (a, b)`` scratch for :meth:`Adam.step`.
#: Client steps run concurrently on executor threads, so each thread owns
#: its pairs; a buffer's contents never outlive the step that filled it.
_scratch = threading.local()


def _scratch_pair(like: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    pairs: Dict[tuple, Tuple[np.ndarray, np.ndarray]] = getattr(_scratch, "pairs", None)
    if pairs is None:
        pairs = _scratch.pairs = {}
    key = (like.shape, like.dtype)
    pair = pairs.get(key)
    if pair is None:
        pair = pairs[key] = (np.empty_like(like), np.empty_like(like))
    return pair


class Adam:
    """Adam (Kingma & Ba 2015) with bias correction.

    The de-facto optimizer for GCN training; used by all experiments
    since the paper does not specify one and Ortho-GCN [11] uses Adam.
    """

    def __init__(
        self,
        params: Iterable[Parameter],
        lr: float = 0.01,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        self.params: List[Parameter] = list(params)
        if not self.params:
            raise ValueError("optimizer received no parameters")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        if weight_decay < 0:
            raise ValueError("weight_decay must be non-negative")
        b1, b2 = betas
        if not (0.0 <= b1 < 1.0 and 0.0 <= b2 < 1.0):
            raise ValueError("betas must be in [0, 1)")
        self.lr = lr
        self.weight_decay = weight_decay
        self.b1, self.b2 = b1, b2
        self.eps = eps
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        """One update, bitwise equal to the textbook expression::

            g = grad + wd * w
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * (g * g)
            w -= lr * (m / bc1) / (sqrt(v / bc2) + eps)

        Each product is formed in scratch with the same operands and
        rounding; only the multiplication order of a scalar and an
        array changes, which is exact.
        """
        self.t += 1
        b1, b2, t = self.b1, self.b2, self.t
        bc1 = 1.0 - b1**t
        bc2 = 1.0 - b2**t
        for i, p in enumerate(self.params):
            a, b = _scratch_pair(p.data)
            g = p.grad
            if g is None:
                a.fill(0.0)
                g = a
            if self.weight_decay:
                np.multiply(p.data, self.weight_decay, out=b)
                g = np.add(g, b, out=a)
            m, v = self._m[i], self._v[i]
            m *= b1
            m += np.multiply(g, 1 - b1, out=b)
            v *= b2
            np.multiply(g, g, out=b)
            b *= 1 - b2
            v += b
            # g is dead from here on, so a is free.
            np.divide(v, bc2, out=b)
            np.sqrt(b, out=b)
            b += self.eps
            np.divide(m, bc1, out=a)
            a *= self.lr
            a /= b
            p.data -= a

    def state_dict(self) -> dict:
        """Step count + moment estimates — everything resume needs for
        bitwise-identical continuation of the update sequence."""
        return {
            "t": self.t,
            "m": [m.copy() for m in self._m],
            "v": [v.copy() for v in self._v],
        }

    def load_state_dict(self, state: dict) -> None:
        if set(state) != {"t", "m", "v"}:
            raise ValueError(f"Adam state needs keys t/m/v, got {set(state)}")
        if len(state["m"]) != len(self._m) or len(state["v"]) != len(self._v):
            raise ValueError("Adam state has wrong number of moment buffers")
        self.t = int(state["t"])
        for dst, src in zip(self._m, state["m"]):
            if dst.shape != np.shape(src):
                raise ValueError("Adam first-moment shape mismatch")
            dst[...] = src
        for dst, src in zip(self._v, state["v"]):
            if dst.shape != np.shape(src):
                raise ValueError("Adam second-moment shape mismatch")
            dst[...] = src

"""The Adam optimizer, with weight decay.

Weight decay is L2-coupled: ``wd·w`` is added to the gradient before
the moment estimates (as ``torch.optim.Adam``'s ``weight_decay`` does),
not applied to the weights separately as in AdamW.  This matches the GCN reference implementations with
``weight_decay=1e-4`` as the paper fixes.

Adam's update runs through ``out=`` into two scratch buffers, shared
by every optimizer on the same thread, so a step allocates nothing
weight-sized.  It walks each parameter in row blocks of about
:data:`BLOCK_ELEMENTS` entries and runs the whole update on one block
before the next: the block's weights, gradient, two moments and the two
scratch buffers (six arrays of 128 KB in float32, 256 KB in float64)
stay in L2 across the dozen-odd elementwise passes, where one pass per
ufunc over the whole Coauthor-CS input weight (6805×64, 1.7 MB per
float32 array) would stream every array from memory each time.  The
moments and the scratch take the parameter's dtype.  The update is
elementwise, so blocking changes no bit of the result.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Tuple

import numpy as np

from repro.nn.module import Parameter

#: Entries per row block of :meth:`Adam.step` (128 KB of float32, 256 KB
#: of float64): six such arrays fit a 1–2 MB L2 with room to spare.
BLOCK_ELEMENTS = 32768

#: Per-thread ``(block shape, dtype) -> (a, b)`` scratch for
#: :meth:`Adam.step`.  Client steps run concurrently on executor threads,
#: so each thread owns its pairs; a buffer's contents never outlive the
#: block that filled it.
_scratch = threading.local()


def _scratch_pair(shape: tuple, dtype) -> Tuple[np.ndarray, np.ndarray]:
    pairs: Dict[tuple, Tuple[np.ndarray, np.ndarray]] = getattr(_scratch, "pairs", None)
    if pairs is None:
        pairs = _scratch.pairs = {}
    key = (shape, dtype)
    pair = pairs.get(key)
    if pair is None:
        pair = pairs[key] = (np.empty(shape, dtype), np.empty(shape, dtype))
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
        array changes, which is exact.  Every parameter is updated one
        row block at a time (see the module docstring); each element
        still sees the same operation sequence.
        """
        self.t += 1
        b1, b2, t = self.b1, self.b2, self.t
        bc1 = 1.0 - b1**t
        bc2 = 1.0 - b2**t
        for p, m, v in zip(self.params, self._m, self._v):
            w, g = p.data, p.grad
            rows = len(w)
            step = max(1, BLOCK_ELEMENTS * rows // max(w.size, 1))
            a, b = _scratch_pair((min(step, rows),) + w.shape[1:], w.dtype)
            for r0 in range(0, rows, step):
                r1 = min(r0 + step, rows)
                self._update(
                    w[r0:r1],
                    None if g is None else g[r0:r1],
                    m[r0:r1],
                    v[r0:r1],
                    a[: r1 - r0],
                    b[: r1 - r0],
                    bc1,
                    bc2,
                )
            if p._grad_buf is not None:  # consumed: back to the pool; others stay to zero_grad
                p.zero_grad()

    def _update(self, w, g, m, v, a, b, bc1: float, bc2: float) -> None:
        """The update on one block; ``a`` and ``b`` are its scratch."""
        b1, b2 = self.b1, self.b2
        if g is None:
            a.fill(0.0)
            g = a
        if self.weight_decay:
            np.multiply(w, self.weight_decay, out=b)
            g = np.add(g, b, out=a)
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
        w -= a

    def state_dict(self) -> dict:
        """Step count + moment estimates — everything resume needs for
        bitwise-identical continuation of the update sequence.

        The moments are the live buffers, not copies (as a checkpoint
        write wants them): the next :meth:`step` overwrites them.
        """
        return {"t": self.t, "m": list(self._m), "v": list(self._v)}

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

"""The federated client: a party subgraph + local model + optimizer."""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.autograd import Tensor, no_grad
from repro.autograd.tensor import get_tensor_sanitizer
from repro.federated.executor import step_stream
from repro.graphs.data import Graph
from repro.nn import Adam, accuracy, cross_entropy
from repro.nn.module import Module


class _EvalForward(NamedTuple):
    version: int
    logits: np.ndarray
    hidden: List[np.ndarray]
    # Per-parameter content fingerprints, taken only under the sanitizer.
    fingerprints: Optional[tuple]


class Client:
    """One party in the federation.

    Holds the private subgraph (never leaves this object — only model
    states and statistics go through the communicator), the local model,
    and the local optimizer.

    The client runs one eval-mode, no-grad forward per model version and
    caches its logits and detached hidden activations
    (:meth:`eval_forward`): :meth:`evaluate` reads both splits from it,
    and FedOMD's moment exchange reads the hidden features of the model
    the client received from it, so the exchange of round r+1 reuses
    round r's evaluation.  ``version`` changes whenever the parameters
    do: on :meth:`set_state` (broadcast, per-client download, checkpoint
    restore, best-state restore), after an optimizer step, and on
    :meth:`bump_version`, which any other in-place write to the model
    (FedOMD's ``hard_orthogonal`` projection) must call.  A skipped step
    (no labelled nodes, or a non-finite loss) and an async client still
    in flight keep their version.  Under the runtime sanitizer every
    cache hit re-checks the parameters' content, so a write that forgot
    its bump raises instead of serving stale logits.

    Parameters
    ----------
    cid:
        Party index.
    graph:
        The party's private subgraph (with masks).
    model:
        Local model instance; all clients must be built with identical
        architecture and (for proper FL) identical initial weights.
    lr / weight_decay:
        Adam hyper-parameters (paper: weight decay 1e-4).
    """

    def __init__(
        self,
        cid: int,
        graph: Graph,
        model: Module,
        lr: float = 0.01,
        weight_decay: float = 1e-4,
    ) -> None:
        self.cid = cid
        self.graph = graph
        self.model = model
        self.optimizer = Adam(model.parameters(), lr=lr, weight_decay=weight_decay)
        self.version = 0
        self._eval: Optional[_EvalForward] = None

    # -- data facts the server is allowed to know -------------------------
    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes

    @property
    def num_train(self) -> int:
        m = self.graph.train_mask
        return int(m.sum()) if m is not None else 0

    def has_train_nodes(self) -> bool:
        return self.num_train > 0

    # -- local optimization -----------------------------------------------
    def train_step(
        self, loss_fn: Callable[["Client"], Tensor], nan_guard: bool = False
    ) -> float:
        """One local optimization step of ``loss_fn(self)``; returns the loss.

        Clients with no labeled nodes skip the step (they still
        participate in aggregation with their current weights, matching
        how FedAvg handles unlabeled parties).  With ``nan_guard``, a
        non-finite loss skips the update instead of poisoning the next
        FedAvg round with NaN weights.

        Inside a serial executor map that streams steps
        (:func:`~repro.federated.executor.step_stream`), the optimizer
        step is deferred to the stream and lands before the map returns;
        this client's next step waits for it first.
        """
        stream = step_stream()
        if stream is not None:
            stream.join(self)
        if not self.has_train_nodes():
            return float("nan")
        self.model.train()
        self.optimizer.zero_grad()
        loss = loss_fn(self)
        value = float(loss.item())
        if nan_guard and not np.isfinite(value):
            return value
        loss.backward()
        if stream is not None:
            stream.submit(self, self.optimizer.step)
        else:
            self.optimizer.step()
        self.version += 1
        return value

    def ce_loss(self) -> Tensor:
        """Default supervised loss: CE on the local train mask."""
        logits = self.model(self.graph)
        return cross_entropy(logits, self.graph.y, self.graph.train_mask)

    # -- evaluation ----------------------------------------------------------
    def bump_version(self) -> None:
        """Invalidate :meth:`eval_forward` after an in-place model write."""
        self.version += 1

    def eval_forward(self) -> Tuple[np.ndarray, List[np.ndarray]]:
        """Eval-mode logits and detached hidden activations of the model.

        Computed by one no-grad ``forward_with_hidden`` per model
        version (through ``Module.call``, so forward counters and the
        cost collector see it) and served from the cache until the
        version changes.  Callers must not write to the returned arrays.
        """
        self.model.eval()
        sanitizer = get_tensor_sanitizer()
        cached = self._eval
        if cached is not None and cached.version == self.version:
            if sanitizer is not None and cached.fingerprints is not None:
                sanitizer.check_parameters(
                    self.model.named_parameters(),
                    cached.fingerprints,
                    f"client {self.cid}'s cached eval forward",
                )
            return cached.logits, cached.hidden
        with no_grad():
            logits, hidden = self.model.call(self.model.forward_with_hidden, self.graph)
        fingerprints = (
            sanitizer.fingerprint_parameters(self.model.named_parameters())
            if sanitizer is not None
            else None
        )
        self._eval = _EvalForward(
            self.version, logits.data, [h.data for h in hidden], fingerprints
        )
        return self._eval.logits, self._eval.hidden

    def evaluate(self, split: str = "test") -> tuple[float, int]:
        """(accuracy, #nodes) on the local ``split`` mask.

        Returns count 0 (accuracy NaN) when the mask is empty, so the
        caller can take a well-defined weighted average across parties.
        """
        mask = getattr(self.graph, f"{split}_mask")
        if mask is None:
            raise ValueError(f"graph has no {split} mask")
        count = int(mask.sum())
        if count == 0:
            return float("nan"), 0
        logits, _ = self.eval_forward()
        return accuracy(logits, self.graph.y, mask), count

    # -- model state movement ---------------------------------------------
    def get_state(self) -> Dict[str, np.ndarray]:
        return self.model.state_dict()

    def set_state(self, state: Dict[str, np.ndarray]) -> None:
        self.model.load_state_dict(state)
        self.version += 1

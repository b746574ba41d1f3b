"""The federated client: a party subgraph + local model + optimizer."""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.autograd import Tensor, no_grad
from repro.autograd.tensor import get_tensor_sanitizer
from repro.graphs.csr import unique
from repro.graphs.data import Graph
from repro.nn import Adam, accuracy, cross_entropy
from repro.nn.module import Module


class _EvalForward(NamedTuple):
    version: int
    logits: np.ndarray
    hidden: List[np.ndarray]
    # Per-parameter content fingerprints, taken only under the sanitizer.
    fingerprints: Optional[tuple]
    # The model's input layer with its autograd graph, until the first
    # training forward of this version takes it (None for a model
    # without an ``input_layer``).
    first: Optional[Tensor]


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

    A model with an ``input_layer`` (OrthoGCN's ``relu(S̃ (X W) + b)``,
    the same in train and eval mode) has that layer recorded as one
    autograd op by the eval forward, and the first training forward
    of the same version (:meth:`train_forward`) starts from it instead
    of recomputing it: once per version, since the backward fills the
    recorded node's gradient.  Under the sanitizer, taking it re-checks
    the parameters' content like a cache hit does.

    A model that declares ``feature_rows`` (OrthoGCN's ``conv_in.weight``)
    is compacted to the party's active feature columns ``cols``, the
    sorted union of its nodes' feature supports: the client holds a copy
    of the graph whose feature CSR is renumbered to those columns and
    keeps only the weight rows ``W[cols]``, so the parameter, its
    gradient and Adam's moments are ``len(cols)`` rows tall.  The
    caller's graph is left as it was.  :attr:`rows` maps the parameter
    name to ``cols``; the server learns it once, at set-up, and every
    transfer of that parameter carries those rows only.

    Parameters
    ----------
    cid:
        Party index.
    graph:
        The party's private subgraph (with masks).
    model:
        Local model instance; all clients must be built with identical
        architecture and (for proper FL) identical initial weights.
        A model declaring ``feature_rows`` is compacted in place.
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
        self.rows: Dict[str, np.ndarray] = {}
        name = getattr(model, "feature_rows", None)
        if name is not None:
            # Before the optimizer is built, so Adam's moments are born compact.
            # The copy shares the caller's propagation operator (built here
            # if it was not), so trainers that reuse one partition build it
            # once, as they did when every client held the caller's graph.
            cols = unique(graph.x.indices)
            graph = dataclasses.replace(graph, x=graph.x.compact_columns(cols), _s_op=graph.s_op)
            param = dict(model.named_parameters())[name]
            param.data = param.data[cols]
            self.rows[name] = cols
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
        """
        if not self.has_train_nodes():
            return float("nan")
        self.model.train()
        self.optimizer.zero_grad()
        loss = loss_fn(self)
        value = float(loss.item())
        if nan_guard and not np.isfinite(value):
            return value
        loss.backward()
        self.optimizer.step()
        self.version += 1
        return value

    def train_forward(self) -> Tuple[Tensor, List[Tensor]]:
        """The model's training ``forward_with_hidden`` on the local graph.

        The first call of a model version starts from the input layer
        its :meth:`eval_forward` recorded; any other recomputes it.
        """
        first = self._take_first()
        if first is None:
            return self.model.forward_with_hidden(self.graph)
        return self.model.forward_with_hidden(self.graph, first)

    def _take_first(self) -> Optional[Tensor]:
        """This version's recorded input layer, handed out once."""
        cached = self._eval
        if cached is None or cached.first is None or cached.version != self.version:
            return None
        self._eval = cached._replace(first=None)
        sanitizer = get_tensor_sanitizer()
        if sanitizer is not None and cached.fingerprints is not None:
            sanitizer.check_parameters(
                self.model.named_parameters(),
                cached.fingerprints,
                f"client {self.cid}'s recorded input layer",
            )
        return cached.first

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

        Computed by one ``forward_with_hidden`` per model version
        (through ``Module.call``, so forward counters and the cost
        collector see it), no-grad except for a recorded input layer,
        and served from the cache until the version changes.  Callers
        must not write to the returned arrays.
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
        logits, hidden, first = self.model.call(self._eval_pass)
        fingerprints = (
            sanitizer.fingerprint_parameters(self.model.named_parameters())
            if sanitizer is not None
            else None
        )
        self._eval = _EvalForward(
            self.version, logits.data, [h.data for h in hidden], fingerprints, first
        )
        return self._eval.logits, self._eval.hidden

    def _eval_pass(self) -> Tuple[Tensor, List[Tensor], Optional[Tensor]]:
        """No-grad ``forward_with_hidden``, with the input layer (if the
        model has one) recorded for :meth:`train_forward`."""
        input_layer = getattr(self.model, "input_layer", None)
        first = input_layer(self.graph) if input_layer is not None else None
        with no_grad():
            if first is None:
                logits, hidden = self.model.forward_with_hidden(self.graph)
            else:
                logits, hidden = self.model.forward_with_hidden(self.graph, first)
        # Recorded only where grad mode is on; otherwise the step recomputes it.
        return logits, hidden, first if first is not None and first.requires_grad else None

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

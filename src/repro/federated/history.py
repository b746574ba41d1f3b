"""Per-round training history — the data behind Figure 5."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class RoundRecord:
    """Metrics of one communication round.

    Timing fields are wall-clock seconds of the round's phases, measured
    by the trainer: ``exchange_time`` (``begin_round`` — FedOMD's moment
    exchange), ``train_time`` (local epochs across clients),
    ``agg_time`` (gather + FedAvg + broadcast), ``eval_time``
    (val + test evaluation), and ``wall_time`` (the whole round).  They
    make the :class:`~repro.federated.executor.ClientExecutor` speedup
    observable in ``results/`` CSVs; they are *not* part of the
    deterministic training metrics (see :meth:`metrics_dict`).
    """

    round: int
    train_loss: float
    val_acc: float
    test_acc: float
    uplink_bytes: int = 0
    downlink_bytes: int = 0
    wall_time: float = 0.0
    exchange_time: float = 0.0
    train_time: float = 0.0
    agg_time: float = 0.0
    eval_time: float = 0.0

    def metrics_dict(self) -> Dict[str, float]:
        """Deterministic fields only — what parallel vs serial must match."""
        return {
            "round": self.round,
            "train_loss": self.train_loss,
            "val_acc": self.val_acc,
            "test_acc": self.test_acc,
            "uplink_bytes": self.uplink_bytes,
            "downlink_bytes": self.downlink_bytes,
        }


def _metrics_match(a: Dict[str, float], b: Dict[str, float]) -> bool:
    """Dict equality where NaN matches NaN.

    A round whose every arrived loss is non-finite (or whose quorum was
    met entirely by loss-less reports) deterministically records a NaN
    ``train_loss``; two such runs still *match* — the NaN is in the same
    place for the same reason.
    """
    if a.keys() != b.keys():
        return False
    for k, va in a.items():
        vb = b[k]
        if va != vb and not (va != va and vb != vb):
            return False
    return True


@dataclass
class TrainingHistory:
    """Accumulates :class:`RoundRecord`s and exposes convergence views."""

    records: List[RoundRecord] = field(default_factory=list)

    def append(self, rec: RoundRecord) -> None:
        self.records.append(rec)

    def __len__(self) -> int:
        return len(self.records)

    @property
    def rounds(self) -> List[int]:
        return [r.round for r in self.records]

    @property
    def test_accuracies(self) -> List[float]:
        return [r.test_acc for r in self.records]

    @property
    def val_accuracies(self) -> List[float]:
        return [r.val_acc for r in self.records]

    @property
    def train_losses(self) -> List[float]:
        return [r.train_loss for r in self.records]

    @property
    def wall_times(self) -> List[float]:
        return [r.wall_time for r in self.records]

    def total_wall_time(self) -> float:
        """Summed per-round wall-clock of the recorded rounds."""
        return float(sum(r.wall_time for r in self.records))

    def metrics_equal(self, other: "TrainingHistory") -> bool:
        """True when the deterministic metrics match record-for-record.

        Timing fields are excluded: a parallel run must reproduce the
        serial run's *training trajectory* exactly, but will (by design)
        differ in wall-clock.
        """
        if len(self.records) != len(other.records):
            return False
        return all(
            _metrics_match(a.metrics_dict(), b.metrics_dict())
            for a, b in zip(self.records, other.records)
        )

    def best(self, metric: str = "val_acc") -> Optional[RoundRecord]:
        """Record with the best value of ``metric`` (None when empty)."""
        if not self.records:
            return None
        return max(self.records, key=lambda r: getattr(r, metric))

    def final_test_accuracy(self) -> float:
        """Test accuracy at the best-validation round (standard protocol)."""
        best = self.best("val_acc")
        return best.test_acc if best else float("nan")

    def rounds_to_reach(self, test_acc: float) -> Optional[int]:
        """First round whose test accuracy meets ``test_acc`` (convergence
        speed metric used by §5.2's convergence analysis)."""
        for r in self.records:
            if r.test_acc >= test_acc:
                return r.round
        return None

    def as_dict(self) -> Dict[str, list]:
        return {
            "round": self.rounds,
            "train_loss": self.train_losses,
            "val_acc": self.val_accuracies,
            "test_acc": self.test_accuracies,
            "wall_time": self.wall_times,
            "exchange_time": [r.exchange_time for r in self.records],
            "train_time": [r.train_time for r in self.records],
            "agg_time": [r.agg_time for r in self.records],
            "eval_time": [r.eval_time for r in self.records],
        }

"""Sanitized runs reach every uplink call site in ``src/``.

The privacy tripwire (:class:`repro.analysis.sanitize.ProtocolMonitor`)
only sees the uploads that a sanitized run executes.  This test scans
``src/repro`` for every ``Communicator`` uplink call
(``.send_to_server(`` / ``.gather(``), runs every registered method for
two sanitized rounds, and demands that the executed sites equal the
scanned ones.  A new uplink on a path no sanitized run reaches fails
here until a run below drives it — and the run itself must clear the
tripwire, so it doubles as the no-false-positive sweep.
"""

import ast
import sys
from pathlib import Path

from repro.baselines import ALL_BASELINES, FedLITTrainer
from repro.core import FedOMDConfig, FedOMDTrainer
from repro.extensions import NoisyMomentExchange, SecureMomentExchange
from repro.federated import TrainerConfig
from repro.federated.comm import Communicator

from tests.analysis.test_sanitize import small_parts

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
UPLINKS = ("send_to_server", "gather")
TRANSPORT = "federated/comm.py"


def _is_super_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "super"
    )


def scan_uplink_sites() -> set:
    """``(path relative to src/repro, line)`` of every uplink call.

    The transport itself and ``super().<uplink>(...)`` forwarding in a
    Communicator subclass are not call sites of their own.
    """
    sites = set()
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel == TRANSPORT:
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in UPLINKS
                and not _is_super_call(node.func.value)
            ):
                sites.add((rel, node.lineno))
    return sites


def _config(cls=TrainerConfig, **kw):
    return cls(max_rounds=2, patience=50, hidden=16, sanitize=True, **kw)


def _fedomd(exchange=None, **kw):
    def build(parts):
        trainer = FedOMDTrainer(parts, _config(FedOMDConfig, **kw), seed=0)
        if exchange is not None:
            trainer.exchange = exchange(trainer)
        return trainer

    return build


def _baseline(name):
    def build(parts):
        if name == "fedlit":  # recluster in round 1: the centroid gather fires
            return FedLITTrainer(parts, _config(), seed=0, recluster_every=1)
        return ALL_BASELINES[name](parts, _config(), seed=0)

    return build


SWEEP = {
    **{name: _baseline(name) for name in ALL_BASELINES},
    "fedomd": _fedomd(),
    "fedomd-async": _fedomd(engine="async", quorum=1.0),
    "fedomd-secure": _fedomd(
        lambda t: SecureMomentExchange(t.comm, orders=t.omd_config.orders)
    ),
    "fedomd-noisy": _fedomd(
        lambda t: NoisyMomentExchange(t.comm, orders=t.omd_config.orders, sigma=0.1)
    ),
}


def run_sweep(monkeypatch) -> set:
    """Uplink sites executed by the sanitized runs of :data:`SWEEP`."""
    executed = set()

    def spy(method):
        real = getattr(Communicator, method)

        def wrapper(self, *args, **kwargs):
            frame = sys._getframe(1)
            while frame.f_code.co_name in UPLINKS:  # a subclass forwarding
                frame = frame.f_back
            path = Path(frame.f_code.co_filename).resolve()
            executed.add((path.relative_to(SRC).as_posix(), frame.f_lineno))
            return real(self, *args, **kwargs)

        monkeypatch.setattr(Communicator, method, wrapper)

    for method in UPLINKS:
        spy(method)
    parts = small_parts()
    for name, build in SWEEP.items():
        history = build(parts).run()
        assert len(history) == 2, name
    return executed


def test_sanitized_runs_reach_every_uplink_site(monkeypatch):
    scanned = scan_uplink_sites()
    assert scanned, "the scan found no uplink call site"
    executed = run_sweep(monkeypatch)
    assert executed == scanned, (
        f"never executed by a sanitized run: {sorted(scanned - executed)}; "
        f"executed but not scanned: {sorted(executed - scanned)}"
    )


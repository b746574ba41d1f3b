"""Experiment runners regenerating every table and figure of the paper.

Each experiment module exposes ``run(mode, out_dir, seeds) -> ExperimentResult``
and registers itself in :data:`repro.experiments.registry.REGISTRY`.
Run from the command line::

    python -m repro.experiments table4 --mode quick
    python -m repro.experiments all    --mode smoke

Modes (see DESIGN.md §6):

* ``smoke`` — seconds per experiment; the benchmark suite's setting.
* ``quick`` — minutes; scaled-down graphs, reduced rounds/seeds.
* ``full``  — paper-scale graphs and budgets (hours on one CPU).
"""

from repro.experiments.registry import REGISTRY, get_experiment
from repro.experiments.runner import (
    ExperimentResult,
    ModeParams,
    MODE_PARAMS,
    make_trainer,
    run_cell,
    MODEL_NAMES,
)

# Import for side effect: each module registers its experiment.
from repro.experiments import table2  # noqa: F401
from repro.experiments import table3  # noqa: F401
from repro.experiments import table4  # noqa: F401
from repro.experiments import table5  # noqa: F401
from repro.experiments import table6  # noqa: F401
from repro.experiments import table7  # noqa: F401
from repro.experiments import fig4  # noqa: F401
from repro.experiments import fig5  # noqa: F401
from repro.experiments import fig6  # noqa: F401
from repro.experiments import fig7  # noqa: F401
from repro.experiments import extensions  # noqa: F401
from repro.experiments import chaos  # noqa: F401
from repro.experiments import loadtest  # noqa: F401
from repro.experiments import accuracy  # noqa: F401

__all__ = [
    "REGISTRY",
    "get_experiment",
    "ExperimentResult",
    "ModeParams",
    "MODE_PARAMS",
    "make_trainer",
    "run_cell",
    "MODEL_NAMES",
]

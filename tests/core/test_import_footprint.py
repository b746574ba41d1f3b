"""A FedOMD run never imports ``scipy.sparse``.

``import scipy.sparse`` costs a process about 14 MB of RSS with scipy
1.17 and numpy 2.4 (it pulls in
``numpy.testing``, ``numpy.f2py`` and scipy's array-API layer), yet a
round calls one compiled function of it, ``csr_matvecs``, which
:mod:`repro.graphs.csr` loads on its own.  A fresh process imports
what fedbench's run imports, trains three FedOMD rounds on the Cora
twin, and must not have loaded the package.  Nor ``numpy.ma`` (about
1.2 MB and 10 ms), which numpy 2.4's hashing ``np.unique`` imports on
its first call: the run's uniques are :func:`repro.graphs.csr.unique`.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

RUN = """
import sys
import numpy as np
import scipy, repro.autograd, repro.core, repro.experiments.configs, repro.federated
import repro.graphs, repro.obs
from repro.core import FedOMDConfig, FedOMDTrainer
from repro.graphs import load_dataset, louvain_partition

graph = load_dataset("cora", seed=0, scale=0.2)
parts = louvain_partition(graph, 3, np.random.default_rng(0)).parts
history = FedOMDTrainer(parts, FedOMDConfig(max_rounds=3, patience=10, hidden=16), seed=0).run()
assert len(history) == 3
loaded = sorted(m for m in sys.modules if m.startswith("scipy.sparse"))
assert loaded == ["scipy.sparse._sparsetools"], loaded
assert "numpy.ma" not in sys.modules, "numpy.ma imported"
"""


def test_fedomd_run_does_not_import_scipy_sparse():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", RUN], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr[-2000:]

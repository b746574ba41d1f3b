"""The fedomd-accuracy gate: its verdict rule and a smoke run of the command."""

import numpy as np
import pytest
from scipy import stats

from repro.experiments import REGISTRY
from repro.experiments.__main__ import main
from repro.experiments.accuracy import GATE_PARAMS, tolerance, verdict
from repro.reporting import read_csv


class TestVerdict:
    def test_tolerance_is_the_one_sided_95_percent_half_width(self):
        d = [0.035, -0.009, -0.019, 0.012, 0.004]
        sem = np.std(d, ddof=1) / np.sqrt(len(d))
        assert tolerance(d) == pytest.approx(stats.t.ppf(0.95, 4) * sem)

    def test_a_deficit_inside_the_seed_noise_passes(self):
        passed, mean, tol = verdict([0.035, -0.009, -0.019, 0.012, -0.04])
        assert mean < 0 and passed and -tol <= mean

    def test_a_consistent_deficit_fails(self):
        passed, mean, tol = verdict([-0.05, -0.04, -0.06, -0.05, -0.045])
        assert not passed and mean < -tol

    def test_needs_two_seeds(self):
        with pytest.raises(ValueError):
            tolerance([0.01])


def test_gate_protocol_is_the_pilots():
    full = GATE_PARAMS["full"]
    assert (full.scale, full.max_rounds, full.patience, full.seeds) == (1.0, 300, 200, 5)


def test_smoke_leg_prints_a_verdict_per_cell(tmp_path, capsys):
    assert "fedomd-accuracy" in REGISTRY
    assert main(["fedomd-accuracy", "--mode", "smoke", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    cols = read_csv(str(tmp_path / "fedomd-accuracy.csv"))
    # Cora and Citeseer × M ∈ {3, 5}, each with FedOMD, FedGCN, LocGCN
    # and the paired-difference row.
    assert len(cols["Method"]) == 2 * 2 * 4
    verdicts = [v for m, v in zip(cols["Method"], cols["Verdict"]) if m == "fedomd - fedgcn"]
    assert len(verdicts) == 4
    assert all(v.split(":")[0] in ("PASS", "FAIL") for v in verdicts)
    assert all(len(s.split(" / ")) == GATE_PARAMS["smoke"].seeds for s in cols["Per seed"])
    assert "fedomd - fedgcn" in out

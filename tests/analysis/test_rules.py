"""Per-rule tests: each rule fires exactly on its fixture's marked lines,
its suppression works, and the CLI exits non-zero on every fixture."""

from pathlib import Path

import pytest

from repro.analysis import Linter
from repro.analysis.__main__ import main as cli_main

FIXTURES = Path(__file__).parent / "fixtures"
RL004_PROJ = FIXTURES / "rl004proj"
RL004_OPS = RL004_PROJ / "src" / "fakepkg" / "autograd" / "ops_fake.py"


def lint_fixture(rule: str, path: Path, root: Path = FIXTURES):
    return Linter(rules=[rule], root=root).lint_files([path])


def fired_lines(report, rule):
    return sorted(v.line for v in report.violations if v.rule == rule)


# Expected firing lines are pinned by the VIOLATION markers inside each
# fixture; a rule drifting wide (extra lines) or narrow (missing lines)
# fails here either way.
CASES = [
    ("RL001", FIXTURES / "rl001.py", [3, 7], 1),
    ("RL002", FIXTURES / "rl002.py", [8, 12, 16], 1),
    ("RL010", FIXTURES / "federated" / "rl010.py", [16], 1),
]


@pytest.mark.parametrize("rule,path,lines,n_suppressed", CASES, ids=[c[0] for c in CASES])
def test_rule_fires_exactly_on_marked_lines(rule, path, lines, n_suppressed):
    report = lint_fixture(rule, path)
    assert fired_lines(report, rule) == lines
    assert report.suppressed == n_suppressed


@pytest.mark.parametrize("rule,path,lines,n_suppressed", CASES, ids=[c[0] for c in CASES])
def test_cli_exits_nonzero_on_fixture(rule, path, lines, n_suppressed, capsys):
    assert cli_main([str(path), "--rule", rule]) == 1
    capsys.readouterr()


class TestRL001:
    def test_default_rng_and_generator_allowed(self):
        src = (
            "import numpy as np\n"
            "from numpy.random import default_rng, SeedSequence\n"
            "r = np.random.default_rng(np.random.SeedSequence(0))\n"
        )
        assert Linter(rules=["RL001"]).lint_source(src).ok


class TestRL002:
    def test_plain_dict_get_not_flagged(self):
        src = "def f(cache, k):\n    return cache.get(k)\n"
        assert Linter(rules=["RL002"]).lint_source(src).ok

    def test_id_in_dict_literal_flagged(self):
        src = "def f(x):\n    return {id(x): 1}\n"
        assert not Linter(rules=["RL002"]).lint_source(src).ok


class TestRL004:
    def _report(self):
        return lint_fixture("RL004", RL004_OPS, root=RL004_PROJ)

    def test_unregistered_unchecked_op_fires_twice(self):
        report = self._report()
        # bad_op (line 11): once for registration, once for gradcheck.
        assert fired_lines(report, "RL004") == [11, 11]
        messages = sorted(v.message for v in report.violations)
        assert "neither exported" in messages[1]
        assert "no gradcheck coverage" in messages[0]

    def test_good_op_and_private_helper_clean(self):
        report = self._report()
        assert all("good_op" not in v.message for v in report.violations)
        assert all("_private_helper" not in v.message for v in report.violations)

    def test_suppression_on_def_line(self):
        # suppressed_op would fire twice; both land on its (suppressed) def line.
        assert self._report().suppressed == 2

    def test_applies_only_to_autograd_ops_files(self):
        from repro.analysis.rules import AutogradOpCoverage

        rule = AutogradOpCoverage()
        assert rule.applies_to(Path("src/repro/autograd/ops_basic.py"))
        assert not rule.applies_to(Path("src/repro/autograd/tensor.py"))
        assert not rule.applies_to(Path("src/repro/federated/ops_fake.py"))

    def test_real_tree_ops_all_covered(self):
        root = Path(__file__).resolve().parents[2]
        report = Linter(rules=["RL004"], root=root).lint_paths([str(root / "src")])
        assert report.ok, [v.message for v in report.violations]


def test_shipped_tree_is_clean():
    """`python -m repro.analysis src/` exits 0 on the repo (acceptance)."""
    root = Path(__file__).resolve().parents[2]
    report = Linter(root=root).lint_paths([str(root / "src")])
    assert report.ok, [f"{v.path}:{v.line} {v.rule} {v.message}" for v in report.violations]
    # The three known-legitimate id() uses in the backward topo sort are
    # suppressed, and visibly so.
    assert report.suppressed >= 3

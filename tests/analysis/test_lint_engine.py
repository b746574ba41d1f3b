"""Engine-level tests: suppressions, reports, reporters, CLI exit codes."""

import json
from pathlib import Path

import pytest

from repro.analysis import (
    PARSE_ERROR_RULE,
    Linter,
    Rule,
    RULE_REGISTRY,
    Violation,
    all_rule_ids,
)
from repro.analysis.lint import _is_suppressed, suppressions
from repro.analysis.reporters import render_json, render_text
from repro.analysis.__main__ import main as cli_main

FIXTURES = Path(__file__).parent / "fixtures"


# ----------------------------------------------------------------------
# suppression parsing
# ----------------------------------------------------------------------
class TestSuppressions:
    def test_same_line(self):
        idx = suppressions("x = 1  # repro-lint: disable=RL001\n")
        assert idx == {1: {"RL001"}}

    def test_multiple_rules_one_comment(self):
        idx = suppressions("x = 1  # repro-lint: disable=RL001,RL002\n")
        assert idx[1] == {"RL001", "RL002"}

    def test_all_keyword_case_insensitive(self):
        idx = suppressions("x = 1  # repro-lint: disable=All\n")
        assert idx[1] == {"ALL"}

    def test_no_comment_no_entry(self):
        assert suppressions("x = 1\ny = 2\n") == {}

    def test_suppressed_same_line(self):
        linter = Linter(rules=["RL001"])
        report = linter.lint_source(
            "import numpy as np\nx = np.random.rand(3)  # repro-lint: disable=RL001\n"
        )
        assert report.ok and report.suppressed == 1

    def test_suppressed_comment_line_above(self):
        src = "import numpy as np\n# repro-lint: disable=RL001\nx = np.random.rand(3)\n"
        report = Linter(rules=["RL001"]).lint_source(src)
        assert report.ok and report.suppressed == 1

    def test_code_line_suppression_does_not_leak_down(self):
        # The disable on line 2 silences line 2 only, not line 3.
        src = (
            "import numpy as np\n"
            "a = np.random.rand(3)  # repro-lint: disable=RL001\n"
            "b = np.random.rand(3)\n"
        )
        report = Linter(rules=["RL001"]).lint_source(src)
        assert [v.line for v in report.violations] == [3]
        assert report.suppressed == 1

    def test_disable_all_silences_every_rule(self):
        src = "import numpy as np\nx = np.random.rand(3)  # repro-lint: disable=all\n"
        report = Linter(rules=["RL001"]).lint_source(src)
        assert report.ok and report.suppressed == 1

    def test_wrong_rule_id_does_not_suppress(self):
        src = "import numpy as np\nx = np.random.rand(3)  # repro-lint: disable=RL002\n"
        report = Linter(rules=["RL001"]).lint_source(src)
        assert not report.ok

    def test_is_suppressed_without_context_ignores_previous_line(self):
        v = Violation(path="x.py", line=5, col=0, rule="RL001", message="m")
        assert not _is_suppressed(v, None, {4: {"RL001"}})
        assert _is_suppressed(v, None, {5: {"RL001"}})


# ----------------------------------------------------------------------
# engine mechanics
# ----------------------------------------------------------------------
class TestEngine:
    def test_all_rules_registered(self):
        # The IDs missing here belong to retired rules
        # (docs/LINT_RULES.md) and stay unused.
        assert all_rule_ids() == ["RL001", "RL002", "RL004", "RL010"]
        for rid, cls in RULE_REGISTRY.items():
            assert cls.id == rid and cls.name and cls.rationale

    def test_empty_rule_list_runs_no_rule(self):
        # Only ``rules=None`` means "every rule"; an empty list is empty.
        assert Linter(rules=[]).rules == []
        report = Linter(rules=[]).lint_source("import numpy as np\nx = np.random.rand(3)\n")
        assert report.ok

    def test_unknown_rule_id_raises(self):
        with pytest.raises(KeyError, match="RL999"):
            Linter(rules=["RL999"])

    def test_rules_instantiated_fresh_per_linter(self):
        # RL004 keeps per-run state; two linters must not share it.
        a, b = Linter(rules=["RL004"]), Linter(rules=["RL004"])
        assert a.rules[0] is not b.rules[0]

    def test_parse_error_reported_as_rl000(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def f(:\n")
        report = Linter(root=tmp_path).lint_files([bad])
        assert [v.rule for v in report.violations] == [PARSE_ERROR_RULE]

    def test_iter_skips_pycache_and_non_python(self, tmp_path):
        (tmp_path / "__pycache__").mkdir()
        (tmp_path / "__pycache__" / "junk.py").write_text("x = 1\n")
        (tmp_path / "notes.txt").write_text("hi\n")
        (tmp_path / "real.py").write_text("x = 1\n")
        report = Linter(root=tmp_path).lint_paths([str(tmp_path)])
        assert report.files_checked == 1 and report.ok

    def test_violation_as_dict_and_ordering(self):
        a = Violation(path="a.py", line=2, col=0, rule="RL001", message="m")
        b = Violation(path="a.py", line=10, col=0, rule="RL001", message="m")
        assert sorted([b, a]) == [a, b]
        assert a.as_dict() == {
            "rule": "RL001", "path": "a.py", "line": 2, "col": 0, "message": "m"
        }

    def test_report_by_rule_counts(self):
        report = Linter(rules=["RL001"]).lint_source(
            "import numpy as np\na = np.random.rand(3)\nb = np.random.rand(3)\n"
        )
        assert report.by_rule() == {"RL001": 2}

    def test_display_paths_relative_to_root(self):
        root = Path(__file__).resolve().parents[2]
        report = Linter(root=root).lint_files([FIXTURES / "rl001.py"])
        assert all(v.path.startswith("tests/analysis/fixtures") for v in report.violations)


# ----------------------------------------------------------------------
# reporters
# ----------------------------------------------------------------------
class TestReporters:
    def _report(self):
        return Linter(rules=["RL001"]).lint_source("import numpy as np\nx = np.random.rand(3)\n")

    def test_text_lists_location_and_summary(self):
        text = render_text(self._report())
        assert "<string>:2:4: RL001" in text
        assert "1 violation(s)" in text

    def test_text_clean(self):
        report = Linter(rules=["RL001"]).lint_source("x = 1\n")
        assert "clean" in render_text(report)

    def test_json_round_trips(self):
        payload = json.loads(render_json(self._report()))
        assert payload["ok"] is False
        assert payload["by_rule"] == {"RL001": 1}
        assert payload["violations"][0]["rule"] == "RL001"

    def test_json_clean(self):
        payload = json.loads(render_json(Linter(rules=["RL001"]).lint_source("x = 1\n")))
        assert payload["ok"] is True and payload["violations"] == []


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCLI:
    def test_exit_zero_on_clean_file(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        assert cli_main([str(clean)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_exit_one_on_violation(self, capsys):
        code = cli_main([str(FIXTURES / "rl001.py"), "--rule", "RL001"])
        assert code == 1
        assert "RL001" in capsys.readouterr().out

    def test_json_format(self, capsys):
        code = cli_main([str(FIXTURES / "rl001.py"), "--rule", "RL001", "--format", "json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False

    def test_unknown_rule_exits_two(self, capsys):
        assert cli_main(["--rule", "RL999", "src"]) == 2

    def test_list_rules(self, capsys):
        assert cli_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rid in all_rule_ids():
            assert rid in out


class TestChangedSince:
    """The incremental (--changed-since) PR-leg mode."""

    VIOLATING = "import numpy as np\n\ndef bad():\n    return np.random.rand(3)\n"

    @staticmethod
    def _git(repo, *args):
        import subprocess

        subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
            cwd=str(repo),
            check=True,
            capture_output=True,
        )

    @pytest.fixture()
    def repo(self, tmp_path):
        (tmp_path / "old.py").write_text(self.VIOLATING)
        self._git(tmp_path, "init", "-q")
        self._git(tmp_path, "add", "old.py")
        self._git(tmp_path, "commit", "-qm", "seed")
        (tmp_path / "new.py").write_text(self.VIOLATING)  # untracked
        return tmp_path

    def test_only_changed_files_reported(self, repo, capsys):
        code = cli_main(
            [str(repo), "--rule", "RL001", "--changed-since", "HEAD",
             "--root", str(repo)]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "new.py" in out
        assert "old.py" not in out

    def test_full_run_still_sees_unchanged_files(self, repo, capsys):
        code = cli_main([str(repo), "--rule", "RL001", "--root", str(repo)])
        out = capsys.readouterr().out
        assert code == 1
        assert "new.py" in out and "old.py" in out

    def test_clean_when_all_findings_are_old(self, repo, capsys):
        (repo / "new.py").unlink()
        code = cli_main(
            [str(repo), "--rule", "RL001", "--changed-since", "HEAD",
             "--root", str(repo)]
        )
        assert code == 0
        capsys.readouterr()

    def test_bad_rev_is_a_usage_error(self, repo, capsys):
        code = cli_main(
            [str(repo), "--rule", "RL001", "--changed-since", "no-such-rev",
             "--root", str(repo)]
        )
        assert code == 2
        capsys.readouterr()

"""CLI: ``python -m repro.analysis <paths> [--format=text|json]``.

Exit status 0 when clean, 1 when any violation survives suppression,
2 on usage errors — so CI can gate on it directly.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.analysis.lint import RULE_REGISTRY, Linter, all_rule_ids
from repro.analysis.reporters import RENDERERS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Project linter: determinism, autograd, and concurrency invariants.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=sorted(RENDERERS),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--rule",
        action="append",
        dest="rules",
        metavar="RLxxx",
        help="run only this rule (repeatable; default: all registered rules)",
    )
    parser.add_argument(
        "--root",
        default=None,
        help="project root for cross-file rules (default: cwd)",
    )
    parser.add_argument(
        "--exclude",
        action="append",
        dest="exclude",
        metavar="SUBSTR",
        help="skip files whose path contains this substring (repeatable); "
        "e.g. --exclude tests/analysis/fixtures",
    )
    parser.add_argument(
        "--changed-since",
        metavar="REV",
        default=None,
        help="report findings only for files changed since this git rev "
        "(committed, staged, unstaged, or untracked); every rule still "
        "analyzes the whole linted tree, so cross-file findings that "
        "land in a changed file are reported — the PR leg of CI uses "
        "this, the push leg lints everything",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    return parser


def changed_files(rev: str, root: Path) -> set:
    """Resolved paths of files touched since ``rev`` (plus untracked)."""
    import subprocess

    out = set()
    for cmd in (
        ["git", "diff", "--name-only", rev, "--"],
        ["git", "ls-files", "--others", "--exclude-standard"],
    ):
        proc = subprocess.run(
            cmd, cwd=str(root), capture_output=True, text=True
        )
        if proc.returncode != 0:
            detail = proc.stderr.strip() or proc.stdout.strip() or "git failed"
            raise ValueError(f"{' '.join(cmd)}: {detail}")
        for line in proc.stdout.splitlines():
            line = line.strip()
            if line:
                out.add((root / line).resolve())
    return out


def _restrict_report(report, changed: set, root: Path):
    """The same report, with violations outside ``changed`` dropped."""
    from repro.analysis.lint import LintReport

    kept = []
    for v in report.violations:
        path = Path(v.path)
        if not path.is_absolute():
            path = root / path
        if path.resolve() in changed:
            kept.append(v)
    return LintReport(
        violations=kept,
        files_checked=report.files_checked,
        suppressed=report.suppressed,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.list_rules:
        import repro.analysis.rules  # noqa: F401  (registers the rule set)

        for rid in all_rule_ids():
            cls = RULE_REGISTRY[rid]
            print(f"{rid}  {cls.name}")
            print(f"       {cls.rationale}")
        return 0

    try:
        linter = Linter(rules=args.rules, root=Path(args.root) if args.root else None)
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    report = linter.lint_paths(args.paths, exclude=args.exclude or ())

    if args.changed_since is not None:
        root = Path(args.root) if args.root else Path.cwd()
        try:
            changed = changed_files(args.changed_since, root)
        except (ValueError, OSError) as exc:
            print(f"error: --changed-since: {exc}", file=sys.stderr)
            return 2
        before = len(report.violations)
        report = _restrict_report(report, changed, root)
        dropped = before - len(report.violations)
        if dropped:
            print(
                f"(incremental: {dropped} finding(s) in files unchanged "
                f"since {args.changed_since} not shown)",
                file=sys.stderr,
            )

    print(RENDERERS[args.format](report))
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())

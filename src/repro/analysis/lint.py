"""AST-based project linter: engine, rule registry, suppressions.

The tier-1 test suite catches bugs that *already happened*; this linter
catches the bug *classes* no test or runtime check holds: the
``id()``-keyed operator caches that once served a dead graph's operator
to a new graph, unseeded global RNG in code no determinism test runs,
differentiable ops without a gradcheck, and fields a worker thread
races with the engine thread.  Rules live in
:mod:`repro.analysis.rules`; the CLI is ``python -m repro.analysis``.

Design
------
* A :class:`Rule` sees each parsed file once (:meth:`Rule.visit`) and,
  for cross-file invariants, the whole run at the end
  (:meth:`Rule.finish`).  Rules are registered by class via
  :func:`register_rule` and instantiated fresh per :class:`Linter` run,
  so per-run rule state (e.g. RL004's collected op table) never leaks.
* Violations are plain value objects; rendering is the reporters'
  concern (:mod:`repro.analysis.reporters`).
* Suppression is engine-level and line-scoped: ``# repro-lint:
  disable=RL002`` on the violating line — or on a comment-only line
  directly above it — silences that rule there and nowhere else
  (``disable=all`` silences every rule).  Suppressed counts are
  reported, so "how much are we ignoring" stays visible.

The engine is pure stdlib (``ast`` + ``re``): linting must not import
the code under analysis, so a broken or dependency-missing tree can
still be linted.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Type

#: Rule id reserved for files the parser rejects.
PARSE_ERROR_RULE = "RL000"

_SUPPRESS_RE = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\s]+)")


@dataclass(frozen=True, order=True)
class Violation:
    """One rule firing at one source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def as_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


class FileContext:
    """One parsed source file as the rules see it."""

    def __init__(self, path: Path, display: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.display = display
        self.source = source
        self.tree = tree
        self.lines: List[str] = source.splitlines()

    def line_text(self, lineno: int) -> str:
        """1-based source line (empty string when out of range)."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""


class ProjectContext:
    """Everything a cross-file rule may consult in :meth:`Rule.finish`."""

    def __init__(self, root: Path, files: Sequence[FileContext]) -> None:
        self.root = root
        self.files: Dict[Path, FileContext] = {f.path: f for f in files}


class Rule:
    """Base class for lint rules.

    Subclasses set ``id`` / ``name`` / ``rationale`` and override
    :meth:`visit` (per file) and/or :meth:`finish` (once per run, after
    every file has been visited — for cross-file invariants).
    """

    id: str = "RL???"
    name: str = ""
    rationale: str = ""

    def applies_to(self, path: Path) -> bool:
        """Whether this rule scans ``path`` at all (default: every file)."""
        return True

    def visit(self, ctx: FileContext) -> Iterable[Violation]:
        return ()

    def finish(self, project: ProjectContext) -> Iterable[Violation]:
        return ()

    # -- helpers shared by concrete rules ---------------------------------
    def violation(self, ctx_or_display, node_or_line, message: str, col: Optional[int] = None) -> Violation:
        """Build a violation from a FileContext + AST node (or raw coords)."""
        if isinstance(ctx_or_display, FileContext):
            display = ctx_or_display.display
        else:
            display = str(ctx_or_display)
        if isinstance(node_or_line, ast.AST):
            line = getattr(node_or_line, "lineno", 1)
            col = getattr(node_or_line, "col_offset", 0)
        else:
            line = int(node_or_line)
            col = 0 if col is None else col
        return Violation(path=display, line=line, col=col, rule=self.id, message=message)


RULE_REGISTRY: Dict[str, Type[Rule]] = {}


def register_rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if cls.id in RULE_REGISTRY:
        raise ValueError(f"duplicate rule id {cls.id!r}")
    RULE_REGISTRY[cls.id] = cls
    return cls


def all_rule_ids() -> List[str]:
    return sorted(RULE_REGISTRY)


def suppressions(source: str) -> Dict[int, Set[str]]:
    """Map of 1-based line number → set of rule ids disabled on that line.

    ``all`` (any case) disables every rule.  Only the line carrying the
    comment is returned; the engine extends a comment-only line's
    suppressions to the line below it.
    """
    out: Dict[int, Set[str]] = {}
    for i, line in enumerate(source.splitlines(), start=1):
        m = _SUPPRESS_RE.search(line)
        if not m:
            continue
        rules = {r.strip().upper() for r in m.group(1).split(",") if r.strip()}
        if rules:
            out[i] = rules
    return out


def _is_suppressed(viol: Violation, ctx: Optional[FileContext], index: Dict[int, Set[str]]) -> bool:
    for lineno in (viol.line, viol.line - 1):
        rules = index.get(lineno)
        if not rules:
            continue
        if lineno == viol.line - 1:
            # A suppression only reaches down from a *comment-only* line;
            # without source context that can't be verified, so don't extend.
            if ctx is None or not ctx.line_text(lineno).lstrip().startswith("#"):
                continue
        if viol.rule.upper() in rules or "ALL" in rules:
            return True
    return False


@dataclass
class LintReport:
    """The outcome of one linter run."""

    violations: List[Violation] = field(default_factory=list)
    files_checked: int = 0
    suppressed: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def by_rule(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for v in self.violations:
            counts[v.rule] = counts.get(v.rule, 0) + 1
        return dict(sorted(counts.items()))


def iter_python_files(path: Path) -> List[Path]:
    """``path`` itself if a .py file, else every .py beneath it, sorted."""
    if path.is_file():
        return [path] if path.suffix == ".py" else []
    return sorted(
        p for p in path.rglob("*.py") if "__pycache__" not in p.parts
    )


class Linter:
    """Runs a set of rules over files and applies suppressions.

    Parameters
    ----------
    rules:
        Rule ids to run (``None``: every registered rule; an empty
        sequence runs none).
    root:
        Project root for cross-file rules (RL004 resolves
        ``tests/autograd`` against it).  Defaults to the current
        working directory.
    """

    def __init__(
        self,
        rules: Optional[Sequence[str]] = None,
        root: Optional[Path] = None,
    ) -> None:
        import repro.analysis.rules  # noqa: F401  (registers the rule set)

        ids = all_rule_ids() if rules is None else list(rules)
        unknown = [r for r in ids if r not in RULE_REGISTRY]
        if unknown:
            raise KeyError(f"unknown rule id(s) {unknown}; known: {all_rule_ids()}")
        self.rules: List[Rule] = [RULE_REGISTRY[r]() for r in ids]
        self.root = Path(root) if root is not None else Path.cwd()

    # ------------------------------------------------------------------
    def lint_paths(
        self, paths: Sequence[str], exclude: Sequence[str] = ()
    ) -> LintReport:
        """Lint every Python file under ``paths``.

        ``exclude`` drops files whose path contains any of the given
        substrings — how CI lints ``tests/`` without tripping over the
        deliberately-violating lint fixtures.
        """
        files: List[Path] = []
        for p in paths:
            files.extend(iter_python_files(Path(p)))
        if exclude:
            files = [
                f for f in files if not any(pat in str(f) for pat in exclude)
            ]
        return self.lint_files(files)

    def lint_files(self, files: Sequence[Path]) -> LintReport:
        contexts: List[FileContext] = []
        raw_violations: List[Violation] = []
        for path in files:
            display = self._display(path)
            try:
                source = path.read_text(encoding="utf-8")
                tree = ast.parse(source, filename=str(path))
            except (SyntaxError, UnicodeDecodeError, OSError) as exc:
                line = getattr(exc, "lineno", 1) or 1
                raw_violations.append(
                    Violation(
                        path=display,
                        line=int(line),
                        col=0,
                        rule=PARSE_ERROR_RULE,
                        message=f"cannot parse file: {exc}",
                    )
                )
                continue
            contexts.append(FileContext(path, display, source, tree))

        for ctx in contexts:
            for rule in self.rules:
                if rule.applies_to(ctx.path):
                    raw_violations.extend(rule.visit(ctx))

        project = ProjectContext(self.root, contexts)
        for rule in self.rules:
            raw_violations.extend(rule.finish(project))

        by_display = {c.display: c for c in contexts}
        kept: List[Violation] = []
        suppressed = 0
        suppress_cache: Dict[str, Dict[int, Set[str]]] = {}
        for v in sorted(set(raw_violations)):
            ctx = by_display.get(v.path)
            if ctx is not None:
                index = suppress_cache.setdefault(v.path, suppressions(ctx.source))
            else:
                index = {}
            if _is_suppressed(v, ctx, index):
                suppressed += 1
            else:
                kept.append(v)
        return LintReport(
            violations=kept, files_checked=len(files), suppressed=suppressed
        )

    def lint_source(self, source: str, path: str = "<string>") -> LintReport:
        """Lint one in-memory snippet (tests and tooling)."""
        tree = ast.parse(source)
        ctx = FileContext(Path(path), path, source, tree)
        raw: List[Violation] = []
        for rule in self.rules:
            if rule.applies_to(ctx.path):
                raw.extend(rule.visit(ctx))
        raw.extend(r for rule in self.rules for r in rule.finish(ProjectContext(self.root, [ctx])))
        index = suppressions(source)
        kept, suppressed = [], 0
        for v in sorted(set(raw)):
            if _is_suppressed(v, ctx, index):
                suppressed += 1
            else:
                kept.append(v)
        return LintReport(violations=kept, files_checked=1, suppressed=suppressed)

    # ------------------------------------------------------------------
    def _display(self, path: Path) -> str:
        try:
            return str(path.resolve().relative_to(self.root.resolve()))
        except ValueError:
            return str(path)

"""The repo-specific per-file rule set (RL001, RL002, RL004).

Each rule encodes an invariant this codebase has bled for (or
structurally depends on) that no test or runtime check holds.  The
catalog with examples and suppression syntax lives in
``docs/LINT_RULES.md``, with the audit behind the rules retired from
it; the short form:

========  ===========================================================
RL001     no unseeded global NumPy RNG (``np.random.rand`` & friends)
RL002     no ``id()``-keyed caches, dicts, or membership tests
RL004     every differentiable autograd op is exported or attached to
          ``Tensor`` *and* referenced by ``tests/autograd``
========  ===========================================================
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.lint import (
    FileContext,
    ProjectContext,
    Rule,
    Violation,
    register_rule,
)


def _dotted(node: ast.AST) -> Optional[Tuple[str, ...]]:
    """``a.b.c`` → ``("a", "b", "c")`` for pure Name/Attribute chains."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


def _is_id_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "id"
        and len(node.args) == 1
    )


@register_rule
class UnseededGlobalRNG(Rule):
    """RL001: forbid the legacy global-state NumPy RNG."""

    id = "RL001"
    name = "no-unseeded-global-rng"
    rationale = (
        "np.random.* module-level samplers share hidden global state: they "
        "break run-to-run reproducibility and are not thread-safe under the "
        "parallel client executor.  Thread an explicit np.random.Generator "
        "(default_rng / SeedSequence) instead."
    )

    ALLOWED = {
        "default_rng",
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "MT19937",
    }

    def visit(self, ctx: FileContext) -> Iterable[Violation]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                chain = _dotted(node.func)
                if (
                    chain
                    and len(chain) == 3
                    and chain[0] in ("np", "numpy")
                    and chain[1] == "random"
                    and chain[2] not in self.ALLOWED
                ):
                    yield self.violation(
                        ctx,
                        node,
                        f"unseeded global RNG call `{'.'.join(chain)}(...)` — "
                        "thread a seeded np.random.Generator "
                        "(default_rng/SeedSequence) instead",
                    )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "numpy.random":
                    bad = [a.name for a in node.names if a.name not in self.ALLOWED]
                    if bad:
                        yield self.violation(
                            ctx,
                            node,
                            f"importing legacy sampler(s) {', '.join(bad)} from "
                            "numpy.random — use np.random.default_rng",
                        )


@register_rule
class IdKeyedCache(Rule):
    """RL002: forbid ``id()``-keyed lookups (the PR 1 cache bug class)."""

    id = "RL002"
    name = "no-id-keyed-cache"
    rationale = (
        "CPython recycles object ids after garbage collection, so an "
        "id()-keyed cache can silently serve one object's entry to another "
        "— exactly the SAGE/GAT operator-cache bug fixed in PR 1.  Key on "
        "the object itself (hash/identity kept alive) or a stable field."
    )

    MUTATORS = {"add", "get", "setdefault", "pop", "discard", "remove", "__contains__"}

    def visit(self, ctx: FileContext) -> Iterable[Violation]:
        seen: Set[Tuple[int, int]] = set()

        def report(node: ast.AST, what: str):
            key = (node.lineno, node.col_offset)
            if key in seen:
                return None
            seen.add(key)
            return self.violation(
                ctx,
                node,
                f"id()-keyed {what} — object ids are recycled after GC; key on "
                "the object itself or a stable identifier",
            )

        for node in ast.walk(ctx.tree):
            v = None
            if isinstance(node, ast.Subscript) and _is_id_call(node.slice):
                v = report(node, "subscript")
            elif isinstance(node, ast.Dict) and any(
                k is not None and _is_id_call(k) for k in node.keys
            ):
                v = report(node, "dict literal")
            elif isinstance(node, (ast.Set,)) and any(_is_id_call(e) for e in node.elts):
                v = report(node, "set literal")
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in self.MUTATORS
                and any(_is_id_call(a) for a in node.args)
            ):
                v = report(node, f"container .{node.func.attr}()")
            elif (
                isinstance(node, ast.Compare)
                and _is_id_call(node.left)
                and any(isinstance(op, (ast.In, ast.NotIn)) for op in node.ops)
            ):
                v = report(node, "membership test")
            if v is not None:
                yield v


@register_rule
class AutogradOpCoverage(Rule):
    """RL004: every differentiable op is registered and gradcheck-backed.

    An op is *differentiable* when its body returns ``Tensor._make``.
    It must be (a) re-exported from the package ``__init__`` or attached
    to ``Tensor`` as a method/dunder, and (b) referenced somewhere in
    ``<root>/tests/autograd`` — the convention being that every op name
    appearing there is exercised by a finite-difference ``gradcheck``.
    """

    id = "RL004"
    name = "autograd-op-coverage"
    rationale = (
        "An op that is neither exported nor attached to Tensor is dead API; "
        "an op without gradcheck coverage is a silent-wrong-gradient risk — "
        "the one bug class a from-scratch autograd cannot afford."
    )

    def __init__(self) -> None:
        # (dir, op name) -> (display path, lineno), collected per visit.
        self._ops: Dict[Tuple[Path, str], Tuple[str, int]] = {}

    def applies_to(self, path: Path) -> bool:
        return path.name.startswith("ops_") and path.parent.name == "autograd"

    def visit(self, ctx: FileContext) -> Iterable[Violation]:
        for node in ctx.tree.body:
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                continue
            makes_tensor = any(
                isinstance(sub, ast.Call)
                and _dotted(sub.func) is not None
                and _dotted(sub.func)[-2:] == ("Tensor", "_make")
                for sub in ast.walk(node)
            )
            if makes_tensor:
                self._ops[(ctx.path.parent, node.name)] = (ctx.display, node.lineno)
        return ()

    def finish(self, project: ProjectContext) -> Iterable[Violation]:
        dirs = {d for d, _ in self._ops}
        init_src: Dict[Path, str] = {}
        attached: Dict[Path, Set[str]] = {}
        for d in dirs:
            init_path = d / "__init__.py"
            try:
                init_src[d] = init_path.read_text(encoding="utf-8")
            except OSError:
                init_src[d] = ""
            attached[d] = self._attachments(d)

        tests_dir = project.root / "tests" / "autograd"
        tests_src = ""
        if tests_dir.is_dir():
            tests_src = "\n".join(
                p.read_text(encoding="utf-8") for p in sorted(tests_dir.glob("*.py"))
            )

        for (d, op), (display, lineno) in sorted(
            self._ops.items(), key=lambda kv: kv[1]
        ):
            word = re.compile(rf"\b{re.escape(op)}\b")
            registered = bool(word.search(init_src[d])) or op in attached[d]
            if not registered:
                yield self.violation(
                    display,
                    lineno,
                    f"differentiable op `{op}` is neither exported from "
                    "autograd/__init__.py nor attached to Tensor — register it "
                    "so callers (and the gradcheck suite) can reach it",
                )
            if not word.search(tests_src):
                yield self.violation(
                    display,
                    lineno,
                    f"differentiable op `{op}` has no gradcheck coverage in "
                    "tests/autograd — add a finite-difference check",
                )

    @staticmethod
    def _attachments(d: Path) -> Set[str]:
        """Names referenced by module-level ``Tensor.<x> = ...`` assigns."""
        names: Set[str] = set()
        for path in sorted(d.glob("ops_*.py")):
            try:
                tree = ast.parse(path.read_text(encoding="utf-8"))
            except (OSError, SyntaxError):
                continue
            for node in tree.body:
                if not isinstance(node, ast.Assign):
                    continue
                to_tensor = any(
                    isinstance(t, ast.Attribute)
                    and isinstance(t.value, ast.Name)
                    and t.value.id == "Tensor"
                    for t in node.targets
                )
                if to_tensor:
                    names.update(
                        n.id for n in ast.walk(node.value) if isinstance(n, ast.Name)
                    )
        return names


# The whole-project rule RL010 lives in its own module but registers
# through the same registry; importing this module loads it too.
from repro.analysis import rules_concurrency  # noqa: E402, F401

"""The repo-specific rule set (RL001–RL006, RL015).

Each rule encodes an invariant this codebase has bled for (or
structurally depends on).  The catalog with examples and suppression
syntax lives in ``docs/LINT_RULES.md``; the short form:

========  ===========================================================
RL001     no unseeded global NumPy RNG (``np.random.rand`` & friends)
RL002     no ``id()``-keyed caches, dicts, or membership tests
RL003     no wall-clock reads (``time.time`` / ``datetime.now``) in
          hot paths (``experiments/`` exempt)
RL004     every differentiable autograd op is exported or attached to
          ``Tensor`` *and* referenced by ``tests/autograd``
RL005     in classes owning a ``_lock``, shared attributes are mutated
          only under ``with self._lock`` or a ``# guarded-by(...)``
          annotation
RL006     no bare ``len(...)`` divisors in aggregation code — bind the
          denominator to a named variable
RL015     every literal ``Tensor._make(..., "op")`` names an op with a
          declared cost signature
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
from repro.autograd import signatures as sig


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
class WallClockInHotPath(Rule):
    """RL003: forbid wall-clock reads outside ``experiments/``."""

    id = "RL003"
    name = "no-wall-clock-in-hot-path"
    rationale = (
        "time.time()/datetime.now() are non-monotonic (NTP steps, DST) and "
        "differ across machines, so timings built on them are neither "
        "reproducible nor safe to diff; hot paths must use spans "
        "(repro.obs) or a time.perf_counter() difference, both monotonic.  "
        "experiments/ drivers are exempt."
    )

    WALL_CHAINS = {
        ("time", "time"),
        ("time", "time_ns"),
        ("datetime", "now"),
        ("datetime", "utcnow"),
        ("datetime", "today"),
        ("date", "today"),
        ("datetime", "datetime", "now"),
        ("datetime", "datetime", "utcnow"),
        ("datetime", "datetime", "today"),
        ("datetime", "date", "today"),
    }

    def applies_to(self, path: Path) -> bool:
        return "experiments" not in path.parts

    def visit(self, ctx: FileContext) -> Iterable[Violation]:
        # `from time import time` makes the bare name a wall-clock read.
        bare_time = any(
            isinstance(n, ast.ImportFrom)
            and n.module == "time"
            and any(a.name == "time" and a.asname is None for a in n.names)
            for n in ast.walk(ctx.tree)
        )
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = _dotted(node.func)
            hit = chain in self.WALL_CHAINS or (
                bare_time and chain == ("time",)
            )
            if hit:
                yield self.violation(
                    ctx,
                    node,
                    f"wall-clock read `{'.'.join(chain)}(...)` in a hot path — "
                    "use spans (repro.obs) or a time.perf_counter() "
                    "difference instead",
                )


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


@register_rule
class CostModelDivergence(Rule):
    """RL015: every literal ``Tensor._make`` op has a cost signature."""

    id = "RL015"
    name = "cost-model-divergence"
    rationale = (
        "The runtime CostCollector raises KeyError on an op with no "
        "declared signature in repro.autograd.signatures, but only on a "
        "path a profiled run executes; a raw Tensor._make(..., \"op\") "
        "literal outside the table is caught here even in code no trace "
        "reaches."
    )

    def visit(self, ctx: FileContext) -> Iterable[Violation]:
        for node in ast.walk(ctx.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "_make"
                and len(node.args) >= 4
            ):
                continue
            op_arg = node.args[3]
            if not (isinstance(op_arg, ast.Constant) and isinstance(op_arg.value, str)):
                continue
            op = op_arg.value
            if op and not sig.has_signature(op):
                yield self.violation(
                    ctx,
                    node,
                    f"Tensor._make op {op!r} has no declared cost signature; "
                    "declare it in repro.autograd.signatures so the cost "
                    "model can price it",
                )


_GUARDED_BY_RE = re.compile(r"#\s*guarded-by\(([^)]*)\)")


@register_rule
class LockGuardedMutation(Rule):
    """RL005: shared-state mutation only under the owning lock."""

    id = "RL005"
    name = "lock-guarded-mutation"
    rationale = (
        "Classes that own a `_lock` (Communicator, MetricsRegistry, Tracer, "
        "...) are mutated from executor worker threads; a mutation "
        "outside `with self._lock` is a data race that corrupts counters "
        "silently.  Mutations that are safe by construction carry a "
        "`# guarded-by(<reason>)` annotation instead."
    )

    EXEMPT_METHODS = {"__init__", "__post_init__", "__del__", "__repr__", "__new__"}
    MUTATORS = {
        "append",
        "add",
        "setdefault",
        "pop",
        "popitem",
        "clear",
        "update",
        "discard",
        "remove",
        "extend",
        "insert",
    }

    def visit(self, ctx: FileContext) -> Iterable[Violation]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef) and self._has_lock(node):
                yield from self._check_class(ctx, node)

    # ------------------------------------------------------------------
    @staticmethod
    def _has_lock(cls: ast.ClassDef) -> bool:
        for node in ast.walk(cls):
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                if node.target.id == "_lock":
                    return True
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for t in targets:
                    if isinstance(t, ast.Name) and t.id == "_lock":
                        return True
                    if (
                        isinstance(t, ast.Attribute)
                        and t.attr == "_lock"
                        and isinstance(t.value, ast.Name)
                        and t.value.id == "self"
                    ):
                        return True
        return False

    def _check_class(self, ctx: FileContext, cls: ast.ClassDef) -> Iterable[Violation]:
        for item in cls.body:
            if (
                isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and item.name not in self.EXEMPT_METHODS
            ):
                yield from self._scan(ctx, item.body, locked=False)

    def _scan(self, ctx: FileContext, stmts, locked: bool) -> Iterable[Violation]:
        for stmt in stmts:
            if isinstance(stmt, ast.With):
                inner_locked = locked or any(
                    self._is_self_lock(item.context_expr) for item in stmt.items
                )
                yield from self._scan(ctx, stmt.body, inner_locked)
                continue
            if isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                if not locked:
                    yield from self._check_mutation(ctx, stmt)
            elif isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
                if not locked:
                    yield from self._check_mutating_call(ctx, stmt.value)
            # Recurse into compound statements, preserving lock state.
            for attr in ("body", "orelse", "finalbody"):
                inner = getattr(stmt, attr, None)
                if isinstance(inner, list) and not isinstance(stmt, ast.With):
                    yield from self._scan(ctx, inner, locked)
            handlers = getattr(stmt, "handlers", None)
            if handlers:
                for h in handlers:
                    yield from self._scan(ctx, h.body, locked)

    @staticmethod
    def _is_self_lock(expr: ast.AST) -> bool:
        return (
            isinstance(expr, ast.Attribute)
            and expr.attr == "_lock"
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
        )

    @staticmethod
    def _self_chain(node: ast.AST) -> Optional[List[str]]:
        """Attribute path if ``node`` is rooted at ``self`` (subscripts ok)."""
        parts: List[str] = []
        while True:
            if isinstance(node, ast.Attribute):
                parts.append(node.attr)
                node = node.value
            elif isinstance(node, ast.Subscript):
                node = node.value
            else:
                break
        if isinstance(node, ast.Name) and node.id == "self" and parts:
            return list(reversed(parts))
        return None

    def _annotated(self, ctx: FileContext, lineno: int) -> bool:
        if _GUARDED_BY_RE.search(ctx.line_text(lineno)):
            return True
        prev = ctx.line_text(lineno - 1).lstrip()
        return prev.startswith("#") and bool(_GUARDED_BY_RE.search(prev))

    def _check_mutation(self, ctx: FileContext, stmt) -> Iterable[Violation]:
        targets = (
            stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        )
        for t in targets:
            chain = self._self_chain(t)
            if chain is None or "_local" in chain:
                continue
            if self._annotated(ctx, stmt.lineno):
                continue
            yield self.violation(
                ctx,
                stmt,
                f"mutation of shared attribute `self.{'.'.join(chain)}` outside "
                "`with self._lock` — hold the lock or annotate with "
                "`# guarded-by(<lock>)`",
            )

    def _check_mutating_call(self, ctx: FileContext, call: ast.Call) -> Iterable[Violation]:
        func = call.func
        if not isinstance(func, ast.Attribute) or func.attr not in self.MUTATORS:
            return
        chain = self._self_chain(func.value)
        if not chain or "_local" in chain:
            return
        if self._annotated(ctx, call.lineno):
            return
        yield self.violation(
            ctx,
            call,
            f"mutating call `self.{'.'.join(chain)}.{func.attr}(...)` outside "
            "`with self._lock` — hold the lock or annotate with "
            "`# guarded-by(<lock>)`",
        )


@register_rule
class BareLenDivisor(Rule):
    """RL006: aggregation denominators must be named variables."""

    id = "RL006"
    name = "explicit-aggregation-denominator"
    rationale = (
        "FedAvg-style weighted aggregation broke in PR 3 because the "
        "denominator silently included clients that never contributed "
        "(dropped, quarantined, unsampled).  A bare `x / len(clients)` "
        "hides that accounting; binding the denominator to a named variable "
        "forces the 'who actually counts' decision into view."
    )

    SCOPE_DIRS = {"federated", "core", "baselines", "extensions"}

    def applies_to(self, path: Path) -> bool:
        return bool(self.SCOPE_DIRS.intersection(path.parts))

    def visit(self, ctx: FileContext) -> Iterable[Violation]:
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.BinOp)
                and isinstance(node.op, (ast.Div, ast.FloorDiv))
                and isinstance(node.right, ast.Call)
                and isinstance(node.right.func, ast.Name)
                and node.right.func.id == "len"
            ):
                yield self.violation(
                    ctx,
                    node,
                    "bare `len(...)` divisor in aggregation code — bind the "
                    "denominator to an explicit, named count/weight variable "
                    "(it must reflect who actually contributed this round)",
                )


# The whole-project rule RL010 lives in its own module but registers
# through the same registry; importing this module loads it too.
from repro.analysis import rules_concurrency  # noqa: E402, F401

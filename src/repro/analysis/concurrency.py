"""Static happens-before model powering concurrency rule RL010.

PR 8 made the runtime genuinely concurrent: executor worker threads run
client tasks while the engine thread owns the event heap, and the async
engine's aggregation consumes reports in heap-pop order.
:class:`HappensBeforeAnalysis` gives the linter a thread-aware view of
that code, built on :class:`~repro.analysis.dataflow.ProjectIndex`.
It classifies every function by the thread context(s) it can run in and
every ``self.*`` field access by the locks held around it, then reports
fields written on executor threads and read (or written) on the engine
thread with no common lock and no ``# guarded-by(...)`` declaration.

The thread model (what "executor thread" means statically)
----------------------------------------------------------

Worker entry points are callables handed to a spawn API: ``pool.submit``,
``executor.map`` / ``map_surviving`` (the :class:`ClientExecutor`
family), and ``threading.Thread(target=...)`` — plus the methods of any
object installed on a ``Communicator._monitor`` hook, which the
transport invokes from whichever thread performs the transfer.

Reachability from those roots distinguishes **ownership**: the mapped
item (the first parameter of a mapped callable) is owned by its task —
per-client state behind it (``client.model``, its optimizer, its RNG) is
touched by exactly one task at a time, so accesses through the owned
receiver are not shared.  Everything reached through a *closure* capture
(``self`` of the enclosing trainer, module globals) is shared state:
methods reached that way are analyzed in "shared" context and their
field accesses participate in race pairing.

Two happens-before edges temper the pairing: constructor writes
(``__init__``/``__post_init__``) happen before any spawn, and the spawn
call itself is a join barrier (``executor.map`` blocks until every task
finishes), so engine-side accesses *in the spawning function* are
ordered with the tasks they launched.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.analysis.dataflow import FunctionInfo, ProjectIndex, _dotted

_GUARDED_BY_RE = re.compile(r"#\s*guarded-by\(([^)]*)\)")

#: Methods that hand a callable to another thread (receiver-checked).
_SPAWN_METHODS = {"submit", "map", "map_surviving"}
#: Receiver name fragments accepted for spawn methods (``self.executor``,
#: ``pool``, ``fault_executor`` …) when class resolution fails.
_SPAWN_RECEIVER_HINTS = ("executor", "pool", "worker")
#: Call methods that mutate their receiver (counted as writes).
_MUTATOR_METHODS = {
    "append", "extend", "insert", "add", "update", "pop", "popitem",
    "remove", "discard", "clear", "setdefault", "appendleft",
}
#: Methods of a ``Communicator._monitor`` hook object, called by the
#: transport from arbitrary threads.
_MONITOR_METHODS = {"on_event", "on_round_end"}

__all__ = [
    "FieldAccess",
    "HappensBeforeAnalysis",
    "RaceFinding",
    "is_lock_chain",
    "lock_id",
]


# ----------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------
def is_lock_chain(chain: Optional[Tuple[str, ...]]) -> bool:
    """Whether a dotted ``with`` target names a lock (``self._lock`` …)."""
    return chain is not None and "lock" in chain[-1].lower()


def lock_id(index: ProjectIndex, chain: Tuple[str, ...], func: FunctionInfo) -> str:
    """Project-wide identity of the lock ``chain`` names inside ``func``.

    ``self.<attr>`` resolves to the enclosing class, other receivers to
    their resolved class when the index knows it, and anything else to
    the module-qualified dotted name.
    """
    if chain[0] == "self" and func.cls is not None:
        return f"{func.cls.qualname}.{'.'.join(chain[1:])}"
    if len(chain) >= 2:
        local_types = index.local_class_types(func)
        classes = index.receiver_classes(chain[:-1], func, local_types)
        if classes:
            return f"{classes[0].qualname}.{chain[-1]}"
    return f"{func.module}.{'.'.join(chain)}"


def _guard_tokens(func: FunctionInfo, line: int) -> Optional[FrozenSet[str]]:
    """Tokens of a ``# guarded-by(...)`` annotation covering ``line``.

    On the access line itself or on a comment-only line directly
    above, as ``# repro-lint: disable=`` suppressions are placed.
    Returns ``None`` when the line carries no annotation (an empty
    annotation still returns a non-None frozenset — the author declared
    *a* discipline).
    """
    for candidate in (line, line - 1):
        text = func.ctx.line_text(candidate)
        if candidate == line - 1 and not text.lstrip().startswith("#"):
            continue
        m = _GUARDED_BY_RE.search(text)
        if m:
            return frozenset(t.strip() for t in m.group(1).split(",") if t.strip())
    return None


@dataclass(frozen=True)
class FieldAccess:
    """One ``self.*``-rooted field access, with its synchronization facts."""

    cls: str  # owning class qualname
    attr: str  # first attribute segment (interior mutations attribute here)
    func: str  # function qualname the access occurs in
    path: str
    line: int
    is_write: bool
    locks: FrozenSet[str]  # lock ids held at the access
    guarded: Optional[FrozenSet[str]]  # guarded-by tokens, None if absent


@dataclass(frozen=True)
class RaceFinding:
    cls: str
    attr: str
    worker: FieldAccess
    main: FieldAccess

    @property
    def path(self) -> str:
        return self.worker.path

    @property
    def line(self) -> int:
        return self.worker.line


# ----------------------------------------------------------------------
# RL010: happens-before / unsynchronized shared field access
# ----------------------------------------------------------------------
class HappensBeforeAnalysis:
    """Thread-context classification + lock-aware field-access pairing."""

    def __init__(self, index: ProjectIndex) -> None:
        self.index = index
        #: qualname → context states it runs in: "shared" and/or "owned".
        self.worker_context: Dict[str, Set[str]] = {}
        #: qualname of every worker *root* (closures handed to a spawn API).
        self.worker_roots: Dict[str, str] = {}  # root qualname → spawning func
        self._accesses: Optional[List[FieldAccess]] = None

    # -- thread roots --------------------------------------------------
    def _spawned_callables(
        self, func: FunctionInfo
    ) -> Iterable[Tuple[FunctionInfo, str]]:
        """(callee, context state) for every spawn call in ``func``."""
        local_types = self.index.local_class_types(func)
        for node in ast.walk(func.node):
            if not isinstance(node, ast.Call):
                continue
            chain = _dotted(node.func)
            if chain is None:
                continue
            target: Optional[ast.AST] = None
            owned = False
            if chain[-1] in _SPAWN_METHODS and len(chain) >= 2:
                receiver = chain[:-1]
                classes = self.index.receiver_classes(receiver, func, local_types)
                looks_executor = any(
                    "executor" in c.name.lower() or "pool" in c.name.lower()
                    for c in classes
                ) or any(h in receiver[-1].lower() for h in _SPAWN_RECEIVER_HINTS)
                if looks_executor and node.args:
                    target = node.args[0]
                    # map(fn, items): each task owns its item (fn's first
                    # parameter); submit(fn, *args) passes through too.
                    owned = True
            elif chain[-1] == "Thread" or chain == ("threading", "Thread"):
                for kw in node.keywords:
                    if kw.arg == "target":
                        target = kw.value
            if target is None:
                continue
            if isinstance(target, ast.Lambda):
                # A lambda body is one expression; model its calls
                # directly (lambdas are not indexed as functions).  A
                # call rooted at the lambda's first parameter reaches a
                # method of the owned item; anything else — a closure
                # capture — is a shared-context entry point.
                own = {a.arg for a in target.args.args[:1]}
                for call in ast.walk(target.body):
                    if not isinstance(call, ast.Call):
                        continue
                    cchain = _dotted(call.func)
                    resolved = self.index.function_named(call.func, func)
                    if resolved is not None:
                        item_rooted = owned and cchain and cchain[0] in own
                        yield resolved, "owned" if item_rooted else "shared"
                continue
            resolved = self.index.function_named(target, func)
            if resolved is not None:
                yield resolved, "shared+item" if owned else "shared"

    def _monitor_methods(self) -> Iterable[FunctionInfo]:
        """Methods of classes installed on a ``_monitor`` hook."""
        for func in self.index.functions.values():
            local_types = self.index.local_class_types(func)
            for node in ast.walk(func.node):
                if not isinstance(node, ast.Assign):
                    continue
                for tgt in node.targets:
                    chain = _dotted(tgt)
                    if chain is None or chain[-1] != "_monitor":
                        continue
                    vchain = _dotted(node.value)
                    if vchain is None:
                        continue
                    for cls in self.index.receiver_classes(
                        vchain, func, local_types
                    ):
                        for name in _MONITOR_METHODS:
                            for meth in self.index.resolve_method(cls, name):
                                yield meth

    # -- reachability --------------------------------------------------
    def compute_contexts(self) -> Dict[str, Set[str]]:
        """Worker-context states per function (cached).

        States describe what ``self`` means on the worker thread:
        ``"shared"`` — self (closure-captured or a shared receiver) is
        shared state, its field accesses participate in race pairing;
        ``"owned"`` — self is the task's mapped item (reached through an
        owned receiver), its fields are task-private.  ``"shared+item"``
        is a root spawned over items: self is shared but the first
        parameter is the owned item.
        """
        if self.worker_context:
            return self.worker_context
        work: List[Tuple[FunctionInfo, str]] = []
        for func in self.index.functions.values():
            for callee, state in self._spawned_callables(func):
                self.worker_roots[callee.qualname] = func.qualname
                work.append((callee, state))
        for meth in self._monitor_methods():
            self.worker_roots.setdefault(meth.qualname, meth.qualname)
            work.append((meth, "shared"))
        while work:
            func, state = work.pop()
            states = self.worker_context.setdefault(func.qualname, set())
            if state in states:
                continue
            states.add(state)
            owned_names = self._owned_names(func, state)
            local_types = self.index.local_class_types(func)
            for node in ast.walk(func.node):
                if not isinstance(node, ast.Call):
                    continue
                callees = self.index.callees(node, func, local_types)
                chain = _dotted(node.func)
                # A root mapped over items owns its first parameter; a
                # method reached through an owned receiver owns its
                # ``self`` (and everything behind it).  A call rooted
                # anywhere else — the closure's ``self``, a global —
                # leaves the ownership bubble: its target runs on the
                # worker thread against *shared* state.
                root_owned = chain is not None and chain[0] in owned_names
                for callee in callees:
                    work.append((callee, "owned" if root_owned else "shared"))
        return self.worker_context

    def _owned_names(self, func: FunctionInfo, state: str) -> Set[str]:
        params = func.params
        if state == "owned":
            if func.cls is not None and params[:1] == ["self"]:
                return {"self"}
            return set(params[:1])
        if state == "shared+item":
            non_self = [p for p in params if p != "self"]
            return set(non_self[:1])
        return set()

    # -- field accesses -------------------------------------------------
    def field_accesses(self) -> List[FieldAccess]:
        """Every ``self``-rooted field access outside constructors."""
        if self._accesses is not None:
            return self._accesses
        out: List[FieldAccess] = []
        for func in self.index.functions.values():
            if func.name in ("__init__", "__post_init__"):
                continue
            cls = self._owner_class(func)
            if cls is None:
                continue
            out.extend(self._walk_accesses(func, cls))
        self._accesses = out
        return out

    def _owner_class(self, func: FunctionInfo):
        """Class whose fields ``self.*`` touches in ``func``.

        For a method that is ``func.cls``; for a closure nested in a
        method, ``self`` is the *enclosing* method's captured receiver —
        exactly the shape handed to ``executor.map``.
        """
        if func.cls is not None:
            return func.cls
        if "<" in func.qualname.rsplit(".", 1)[-1]:
            parent = self.index.functions.get(func.qualname.rsplit(".", 1)[0])
            if parent is not None:
                return parent.cls
        return None

    def _walk_accesses(self, func: FunctionInfo, cls) -> List[FieldAccess]:
        out: List[FieldAccess] = []
        analysis = self

        def lock_ids(with_items: List[Tuple[str, ...]]) -> FrozenSet[str]:
            return frozenset(lock_id(analysis.index, c, func) for c in with_items)

        def record(chain: Tuple[str, ...], node: ast.AST, write: bool,
                   held: List[Tuple[str, ...]]) -> None:
            attr = chain[1]
            if "lock" in attr.lower():
                return  # the locks themselves are synchronization, not data
            out.append(
                FieldAccess(
                    cls=cls.qualname,
                    attr=attr,
                    func=func.qualname,
                    path=func.ctx.display,
                    line=node.lineno,
                    is_write=write,
                    locks=lock_ids(held),
                    guarded=_guard_tokens(func, node.lineno),
                )
            )

        def visit(node: ast.AST, held: List[Tuple[str, ...]]) -> None:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node is not func.node:
                    return  # nested defs are indexed as their own functions
            if isinstance(node, ast.With):
                acquired: List[Tuple[str, ...]] = []
                for item in node.items:
                    c = _dotted(item.context_expr)
                    if is_lock_chain(c):
                        acquired.append(c)
                inner = held + acquired
                for item in node.items:
                    visit(item.context_expr, held)
                for stmt in node.body:
                    visit(stmt, inner)
                return
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for tgt in targets:
                    chain = _dotted(tgt)
                    if chain and chain[0] == "self" and len(chain) >= 2:
                        record(chain, tgt, True, held)
                if isinstance(node, ast.AugAssign):
                    chain = _dotted(node.target)
                    if chain and chain[0] == "self" and len(chain) >= 2:
                        record(chain, node.target, False, held)  # read half
                if node.value is not None:
                    visit(node.value, held)
                return
            if isinstance(node, ast.Call):
                chain = _dotted(node.func)
                if (
                    chain
                    and chain[0] == "self"
                    and len(chain) >= 3
                    and chain[-1] in _MUTATOR_METHODS
                ):
                    record(chain, node, True, held)
                for child in ast.iter_child_nodes(node):
                    visit(child, held)
                return
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                chain = _dotted(node)
                if chain and chain[0] == "self" and len(chain) >= 2:
                    record(chain, node, False, held)
                    return  # the chain is one access; don't double-count
            for child in ast.iter_child_nodes(node):
                visit(child, held)

        for stmt in func.node.body:
            visit(stmt, [])
        return out

    # -- race pairing ---------------------------------------------------
    def races(self) -> List[RaceFinding]:
        contexts = self.compute_contexts()
        accesses = self.field_accesses()
        by_field: Dict[Tuple[str, str], List[FieldAccess]] = {}
        for a in accesses:
            by_field.setdefault((a.cls, a.attr), []).append(a)

        def shared_worker(a: FieldAccess) -> bool:
            states = contexts.get(a.func, ())
            return "shared" in states or "shared+item" in states

        def main_side(a: FieldAccess) -> bool:
            # Nested closures handed to a spawn API only ever run as
            # tasks; every other function — including a *method* used as
            # a task target — is (statically) callable from the engine
            # thread too.
            return a.func not in self.worker_roots or "<" not in a.func

        def synchronized(w: FieldAccess, m: FieldAccess) -> bool:
            if w.guarded is not None or m.guarded is not None:
                return True  # a declared discipline (lock or barrier)
            return bool(w.locks & m.locks)

        def joined(w: FieldAccess, m: FieldAccess) -> bool:
            # The spawn call is a join barrier: accesses in the spawning
            # function are ordered with the tasks it launched.
            spawner = self.worker_roots.get(w.func)
            return spawner is not None and m.func == spawner

        findings: List[RaceFinding] = []
        for (cls, attr), group in sorted(by_field.items()):
            worker_writes = [a for a in group if shared_worker(a) and a.is_write]
            worker_reads = [a for a in group if shared_worker(a) and not a.is_write]
            main_writes = [a for a in group if main_side(a) and a.is_write]
            main_any = [a for a in group if main_side(a)]
            pair: Optional[Tuple[FieldAccess, FieldAccess]] = None
            for w in worker_writes:
                for m in main_any:
                    if m is w:
                        continue
                    if not synchronized(w, m) and not joined(w, m):
                        pair = (w, m)
                        break
                if pair:
                    break
            if pair is None:
                for r in worker_reads:
                    for m in main_writes:
                        if m is r:
                            continue
                        if not synchronized(r, m) and not joined(r, m):
                            pair = (r, m)
                            break
                    if pair:
                        break
            if pair is not None:
                findings.append(RaceFinding(cls, attr, pair[0], pair[1]))
        return findings

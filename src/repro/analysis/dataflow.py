"""Interprocedural dataflow foundation for the project linter.

One project index (modules, classes, functions, imports, a resolved
call graph with virtual dispatch over ``self.*`` attributes) built from
already-parsed :class:`~repro.analysis.lint.FileContext` objects — like
the rest of the linter this module is pure stdlib and never imports the
code under analysis.  The index is shared by RL007's taint pass below
and by RL010's happens-before pass in :mod:`repro.analysis.concurrency`.

:class:`TaintAnalysis` — forward taint propagation with configurable
sources / sanitizers / sinks and per-function summaries (which
parameters flow to the return value, which parameters reach a sink),
iterated to a fixpoint so taint crosses function and class-attribute
boundaries.  Powers RL007 (privacy escape): raw party tensors
(``graph.x`` / ``.y`` / ``.edge_index`` / ``.adj``, the cached views
``.x_dense`` / ``.s_op``, whole ``graph`` handles) must pass a statistic
constructor (``mean`` / ``sum`` / ``state_dict`` / the moment helpers)
before reaching a ``Communicator`` uplink (``send_to_server`` /
``gather``).  Legitimate aggregate uploads carry a per-call
``# privacy-ok(<reason>)`` annotation.

The analysis is sound-ish rather than complete: unresolvable calls
propagate taint conservatively, and the rule aims for zero false
positives on idiomatic project code.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.lint import FileContext

_PRIVACY_OK_RE = re.compile(r"#\s*privacy-ok\(([^)]*)\)")


def _dotted(node: ast.AST) -> Optional[Tuple[str, ...]]:
    """(``'self'``, ``'comm'``, ``'gather'``) for ``self.comm.gather``.

    Subscripts are transparent (``parts[0].x`` → ``('parts', 'x')``);
    anything else (calls, literals) breaks the chain.
    """
    parts: List[str] = []
    while True:
        if isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        elif isinstance(node, ast.Subscript):
            node = node.value
        elif isinstance(node, ast.Name):
            parts.append(node.id)
            return tuple(reversed(parts))
        else:
            return None


def module_name_for(path: Path) -> str:
    """Dotted module name; path parts up to the last ``src`` are dropped."""
    parts = list(path.parts)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    if "src" in parts:
        parts = parts[len(parts) - parts[::-1].index("src"):]
    return ".".join(p for p in parts if p) or "<root>"


# ----------------------------------------------------------------------
# project index
# ----------------------------------------------------------------------
@dataclass
class FunctionInfo:
    """One function or method as the analyses see it."""

    qualname: str
    name: str
    module: str
    ctx: FileContext
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    cls: Optional["ClassInfo"] = None
    parent: Optional["FunctionInfo"] = None
    nested: Dict[str, "FunctionInfo"] = field(default_factory=dict)

    @property
    def params(self) -> List[str]:
        a = self.node.args
        return [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs)]


@dataclass
class ClassInfo:
    qualname: str
    name: str
    module: str
    ctx: FileContext
    node: ast.ClassDef
    base_names: List[str] = field(default_factory=list)
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: ``self.<attr>`` → class qualnames it may hold (from constructor
    #: calls, annotations, and annotated parameters assigned through).
    attr_types: Dict[str, Set[str]] = field(default_factory=dict)
    bases: List["ClassInfo"] = field(default_factory=list)
    subclasses: List["ClassInfo"] = field(default_factory=list)

    def mro(self) -> List["ClassInfo"]:
        out, seen = [], set()
        stack = [self]
        while stack:
            c = stack.pop(0)
            if c.qualname in seen:
                continue
            seen.add(c.qualname)
            out.append(c)
            stack.extend(c.bases)
        return out

    def all_subclasses(self) -> List["ClassInfo"]:
        out, seen = [], set()
        stack = list(self.subclasses)
        while stack:
            c = stack.pop()
            if c.qualname in seen:
                continue
            seen.add(c.qualname)
            out.append(c)
            stack.extend(c.subclasses)
        return out


class ProjectIndex:
    """Modules, classes, functions, imports, and call resolution."""

    def __init__(self, contexts: Sequence[FileContext]) -> None:
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.imports: Dict[str, Dict[str, str]] = {}
        self.module_funcs: Dict[str, Dict[str, FunctionInfo]] = {}
        self.module_classes: Dict[str, Dict[str, ClassInfo]] = {}
        for ctx in contexts:
            self._index_file(ctx)
        self._resolve_bases()
        self._collect_attr_types()

    # -- construction --------------------------------------------------
    def _index_file(self, ctx: FileContext) -> None:
        module = module_name_for(ctx.path)
        imports = self.imports.setdefault(module, {})
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    imports[a.asname or a.name.split(".")[0]] = a.name
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                for a in node.names:
                    if a.name == "*":
                        continue
                    target = f"{base}.{a.name}" if base else a.name
                    imports[a.asname or a.name] = target
        funcs = self.module_funcs.setdefault(module, {})
        classes = self.module_classes.setdefault(module, {})
        for stmt in ctx.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fi = self._add_function(stmt, module, ctx, qual=f"{module}.{stmt.name}")
                funcs[stmt.name] = fi
            elif isinstance(stmt, ast.ClassDef):
                ci = ClassInfo(
                    qualname=f"{module}.{stmt.name}",
                    name=stmt.name,
                    module=module,
                    ctx=ctx,
                    node=stmt,
                    base_names=[
                        ".".join(c) for c in (_dotted(b) for b in stmt.bases) if c
                    ],
                )
                self.classes[ci.qualname] = ci
                classes[stmt.name] = ci
                for sub in stmt.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        mi = self._add_function(
                            sub, module, ctx, qual=f"{ci.qualname}.{sub.name}", cls=ci
                        )
                        ci.methods[sub.name] = mi

    def _add_function(
        self,
        node: ast.AST,
        module: str,
        ctx: FileContext,
        qual: str,
        cls: Optional[ClassInfo] = None,
        parent: Optional[FunctionInfo] = None,
    ) -> FunctionInfo:
        fi = FunctionInfo(
            qualname=qual, name=node.name, module=module, ctx=ctx, node=node,
            cls=cls, parent=parent,
        )
        self.functions[qual] = fi
        for stmt in ast.walk(node):
            if stmt is node or not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            # only direct children (avoid double-indexing deeper nests)
            if any(stmt in ast.walk(inner.node) for inner in fi.nested.values()):
                continue
            inner = self._add_function(
                stmt, module, ctx, qual=f"{qual}.<{stmt.name}>", cls=cls, parent=fi
            )
            fi.nested[stmt.name] = inner
        return fi

    def _resolve_bases(self) -> None:
        for ci in self.classes.values():
            for base in ci.base_names:
                target = self.find_class(ci.module, base)
                if target is not None and target is not ci:
                    ci.bases.append(target)
                    target.subclasses.append(ci)

    def _collect_attr_types(self) -> None:
        for ci in self.classes.values():
            for meth in ci.methods.values():
                local = self.local_class_types(meth)
                for stmt in ast.walk(meth.node):
                    target = None
                    value = None
                    ann = None
                    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                        target, value = stmt.targets[0], stmt.value
                    elif isinstance(stmt, ast.AnnAssign):
                        target, value, ann = stmt.target, stmt.value, stmt.annotation
                    if target is None:
                        continue
                    chain = _dotted(target)
                    if chain is None or len(chain) != 2 or chain[0] != "self":
                        continue
                    types = self._value_class_types(value, meth, local)
                    types |= self._annotation_class_types(ann, meth.module)
                    if types:
                        ci.attr_types.setdefault(chain[1], set()).update(types)

    def _value_class_types(
        self,
        value: Optional[ast.AST],
        func: FunctionInfo,
        local: Dict[str, Set[str]],
    ) -> Set[str]:
        if isinstance(value, ast.Call):
            chain = _dotted(value.func)
            if chain is not None:
                ci = self.find_class(func.module, ".".join(chain))
                if ci is not None:
                    return {ci.qualname}
        elif isinstance(value, ast.Name) and value.id in local:
            return set(local[value.id])
        return set()

    def _annotation_class_types(self, ann: Optional[ast.AST], module: str) -> Set[str]:
        if ann is None:
            return set()
        for node in ast.walk(ann):
            chain = _dotted(node) if isinstance(node, (ast.Name, ast.Attribute)) else None
            if chain:
                ci = self.find_class(module, ".".join(chain))
                if ci is not None:
                    return {ci.qualname}
        return set()

    # -- symbol resolution ---------------------------------------------
    def _expand(self, module: str, dotted: str) -> str:
        parts = dotted.split(".")
        target = self.imports.get(module, {}).get(parts[0])
        if target is not None:
            return ".".join([target] + parts[1:])
        return f"{module}.{dotted}"

    def find_class(self, module: str, dotted: str) -> Optional[ClassInfo]:
        full = self._expand(module, dotted)
        if full in self.classes:
            return self.classes[full]
        ci = self.module_classes.get(module, {}).get(dotted)
        if ci is not None:
            return ci
        name = dotted.split(".")[-1]
        cands = [c for c in self.classes.values() if c.name == name]
        return cands[0] if len(cands) == 1 else None

    def find_function(self, module: str, dotted: str) -> Optional[FunctionInfo]:
        full = self._expand(module, dotted)
        if full in self.functions:
            return self.functions[full]
        fi = self.module_funcs.get(module, {}).get(dotted)
        if fi is not None:
            return fi
        name = dotted.split(".")[-1]
        cands = [
            f for f in self.functions.values() if f.name == name and f.cls is None
        ]
        return cands[0] if len(cands) == 1 else None

    def local_class_types(self, func: FunctionInfo) -> Dict[str, Set[str]]:
        """Flow-insensitive ``local name → class qualnames`` for one function.

        Seeded from annotated parameters and ``x = ClassName(...)``
        constructor assignments — enough to resolve ``comm.gather(...)``
        through ``def __init__(self, comm: Communicator)``.
        """
        out: Dict[str, Set[str]] = {}
        args = func.node.args
        for p in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            types = self._annotation_class_types(p.annotation, func.module)
            if types:
                out[p.arg] = types
        for stmt in ast.walk(func.node):
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                tgt, val = stmt.targets[0], stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                tgt, val = stmt.target, stmt.value
            else:
                continue
            if not isinstance(tgt, ast.Name):
                continue
            types = self._value_class_types(val, func, out)
            if types:
                out.setdefault(tgt.id, set()).update(types)
        return out

    def resolve_method(self, cls: ClassInfo, name: str) -> List[FunctionInfo]:
        """Defining method plus every subclass override (virtual dispatch)."""
        out: List[FunctionInfo] = []
        for c in cls.mro():
            if name in c.methods:
                out.append(c.methods[name])
                break
        for sub in cls.all_subclasses():
            if name in sub.methods:
                out.append(sub.methods[name])
        seen: Set[str] = set()
        return [f for f in out if not (f.qualname in seen or seen.add(f.qualname))]

    def receiver_classes(
        self,
        chain: Tuple[str, ...],
        func: FunctionInfo,
        local_types: Dict[str, Set[str]],
    ) -> List[ClassInfo]:
        """Class candidates for a receiver chain like ``('self', 'comm')``."""
        if not chain:
            return []
        cur: List[ClassInfo] = []
        rest = chain[1:]
        if chain[0] == "self" and func.cls is not None:
            cur = [func.cls]
        elif chain[0] in local_types:
            cur = [self.classes[q] for q in local_types[chain[0]] if q in self.classes]
        else:
            ci = self.find_class(func.module, chain[0])
            if ci is not None and not rest:
                return []  # bare class reference, not an instance
            return []
        for attr in rest:
            nxt: List[ClassInfo] = []
            for c in cur:
                for base in c.mro():
                    for q in base.attr_types.get(attr, ()):
                        if q in self.classes:
                            nxt.append(self.classes[q])
            seen: Set[str] = set()
            cur = [c for c in nxt if not (c.qualname in seen or seen.add(c.qualname))]
        return cur

    def callees(
        self,
        call: ast.Call,
        func: FunctionInfo,
        local_types: Dict[str, Set[str]],
    ) -> Tuple[List[FunctionInfo], Optional[ClassInfo]]:
        """(callee candidates, constructed class if a constructor call)."""
        fn = call.func
        if isinstance(fn, ast.Name):
            f: Optional[FunctionInfo] = func
            while f is not None:
                if fn.id in f.nested:
                    return [f.nested[fn.id]], None
                f = f.parent
            ci = self.find_class(func.module, fn.id)
            if ci is not None:
                init = self.resolve_method(ci, "__init__")
                return init[:1], ci
            target = self.find_function(func.module, fn.id)
            if target is not None:
                return [target], None
            return [], None
        if isinstance(fn, ast.Attribute):
            chain = _dotted(fn)
            if chain is None:
                return [], None
            out: List[FunctionInfo] = []
            for c in self.receiver_classes(chain[:-1], func, local_types):
                out.extend(self.resolve_method(c, chain[-1]))
            seen: Set[str] = set()
            return (
                [f for f in out if not (f.qualname in seen or seen.add(f.qualname))],
                None,
            )
        return [], None

    def function_named(self, name_node: ast.AST, func: FunctionInfo) -> Optional[FunctionInfo]:
        """Resolve a bare function *reference* (higher-order argument)."""
        if isinstance(name_node, ast.Name):
            f: Optional[FunctionInfo] = func
            while f is not None:
                if name_node.id in f.nested:
                    return f.nested[name_node.id]
                f = f.parent
            return self.find_function(func.module, name_node.id)
        chain = _dotted(name_node) if isinstance(name_node, ast.Attribute) else None
        if chain and len(chain) == 2 and chain[0] == "self" and func.cls is not None:
            methods = self.resolve_method(func.cls, chain[1])
            return methods[0] if methods else None
        return None


# ----------------------------------------------------------------------
# taint analysis (RL007)
# ----------------------------------------------------------------------
@dataclass(frozen=True, order=True)
class Hop:
    """One step of a source→sink path."""

    path: str
    line: int
    note: str


_MAX_TRACES = 3
_MAX_HOPS = 8


@dataclass(frozen=True)
class Taint:
    """A value's taint: concrete source traces + parameter dependencies."""

    traces: FrozenSet[Tuple[Hop, ...]] = frozenset()
    params: FrozenSet[int] = frozenset()

    def __bool__(self) -> bool:
        return bool(self.traces or self.params)

    def union(self, *others: "Taint") -> "Taint":
        traces = set(self.traces)
        params = set(self.params)
        for o in others:
            traces |= o.traces
            params |= o.params
        return Taint(frozenset(sorted(traces)[:_MAX_TRACES]), frozenset(params))

    def extended(self, hop: Hop) -> "Taint":
        """Append a hop to every trace (crossing a call boundary)."""
        return Taint(
            frozenset(t + (hop,) if len(t) < _MAX_HOPS else t for t in self.traces),
            self.params,
        )


CLEAN = Taint()


@dataclass
class SinkPath:
    """A sink reachable from a function parameter (for caller reporting)."""

    hops: Tuple[Hop, ...]  # ends at the sink call
    sink: str  # method name, e.g. "send_to_server"

    def key(self) -> Tuple:
        return (self.sink, self.hops)


@dataclass
class TaintSummary:
    returns: Taint = CLEAN
    param_sinks: Dict[int, List[SinkPath]] = field(default_factory=dict)

    def key(self) -> Tuple:
        return (
            self.returns,
            tuple(
                (i, tuple(p.key() for p in paths))
                for i, paths in sorted(self.param_sinks.items())
            ),
        )


@dataclass(frozen=True)
class TaintFinding:
    path: str
    line: int
    sink: str
    trace: Tuple[Hop, ...]

    def render_trace(self) -> str:
        return " -> ".join(f"{h.note} [{h.path}:{h.line}]" for h in self.trace)


@dataclass
class TaintConfig:
    """Sources, sanitizers and sinks of the privacy-escape rule."""

    #: raw-field reads: ``<receiver>.<field>`` where the receiver's last
    #: segment names a party subgraph.
    source_fields: FrozenSet[str] = frozenset(
        {"x", "y", "edge_index", "adj", "x_dense", "s_op"}
    )
    source_receivers: FrozenSet[str] = frozenset({"graph", "g", "subgraph", "part", "parts"})
    #: attributes that *are* a party-data handle wherever they appear.
    source_handles: FrozenSet[str] = frozenset({"graph"})
    #: method names whose call result is a statistic, not raw data.
    sanitizer_methods: FrozenSet[str] = frozenset(
        {"mean", "sum", "state_dict", "get_state", "item"}
    )
    #: free functions with the same property.
    sanitizer_funcs: FrozenSet[str] = frozenset(
        {
            "float", "int", "len", "bool", "str", "min", "max",
            "weighted_mean_statistics", "central_moments_np",
            "accuracy", "payload_bytes",
        }
    )
    #: uplink sink methods → payload argument position (bound call).
    sink_methods: Dict[str, int] = field(
        default_factory=lambda: {"send_to_server": 1, "gather": 0}
    )
    #: containers that mutate their receiver with their argument.
    mutators: FrozenSet[str] = frozenset(
        {"append", "add", "extend", "insert", "update", "setdefault"}
    )
    #: attribute reads that yield array *metadata*, never content.
    metadata_attrs: FrozenSet[str] = frozenset(
        {"shape", "dtype", "ndim", "size", "nbytes", "nnz"}
    )

    def is_source_chain(self, chain: Tuple[str, ...]) -> Optional[str]:
        if chain[-1] in self.source_handles:
            return f"party subgraph handle `{'.'.join(chain)}`"
        if (
            len(chain) >= 2
            and chain[-1] in self.source_fields
            and chain[-2] in self.source_receivers
        ):
            return f"raw party tensor `{'.'.join(chain)}`"
        return None


def _is_comm_family(cls: Optional[ClassInfo]) -> bool:
    return cls is not None and any(
        c.name.endswith("Communicator") for c in cls.mro()
    )


def _receiver_is_comm(
    chain: Tuple[str, ...],
    func: FunctionInfo,
    local_types: Dict[str, Set[str]],
    index: ProjectIndex,
) -> bool:
    recv = chain[:-1]
    if any("comm" in seg.lower() for seg in recv):
        return True
    return any(
        _is_comm_family(c) for c in index.receiver_classes(recv, func, local_types)
    )


def _line_annotated(ctx: FileContext, line: int, pattern: re.Pattern) -> bool:
    if pattern.search(ctx.line_text(line)):
        return True
    above = ctx.line_text(line - 1)
    return above.lstrip().startswith("#") and bool(pattern.search(above))


class TaintAnalysis:
    """Fixpoint interprocedural taint propagation over a ProjectIndex."""

    MAX_PASSES = 10

    def __init__(self, index: ProjectIndex, config: Optional[TaintConfig] = None) -> None:
        self.index = index
        self.config = config or TaintConfig()
        self.summaries: Dict[str, TaintSummary] = {
            q: TaintSummary() for q in index.functions
        }
        #: (class qualname, attr) → source traces stored into it.
        self.attr_taint: Dict[Tuple[str, str], FrozenSet[Tuple[Hop, ...]]] = {}
        self._local_types: Dict[str, Dict[str, Set[str]]] = {}

    # -- public --------------------------------------------------------
    def run(self) -> List[TaintFinding]:
        order = sorted(self.index.functions)
        for _ in range(self.MAX_PASSES):
            before = self._state_key()
            for qual in order:
                self._analyze(self.index.functions[qual], collect=None)
            if self._state_key() == before:
                break
        findings: List[TaintFinding] = []
        for qual in order:
            self._analyze(self.index.functions[qual], collect=findings)
        seen: Set[Tuple] = set()
        out = []
        for f in sorted(findings, key=lambda f: (f.path, f.line, f.trace)):
            key = (f.path, f.line, f.trace[:1])
            if key not in seen:
                seen.add(key)
                out.append(f)
        return out

    def _state_key(self) -> Tuple:
        return (
            tuple((q, s.key()) for q, s in sorted(self.summaries.items())),
            tuple(sorted((k, v) for k, v in self.attr_taint.items())),
        )

    def _types_for(self, func: FunctionInfo) -> Dict[str, Set[str]]:
        if func.qualname not in self._local_types:
            self._local_types[func.qualname] = self.index.local_class_types(func)
        return self._local_types[func.qualname]

    # -- per-function analysis ----------------------------------------
    def _analyze(self, func: FunctionInfo, collect: Optional[List[TaintFinding]]) -> None:
        walker = _TaintWalker(self, func, collect)
        walker.run()
        summary = self.summaries[func.qualname]
        if walker.returns.traces - summary.returns.traces or (
            walker.returns.params - summary.returns.params
        ):
            summary.returns = summary.returns.union(walker.returns)
        for idx, paths in walker.param_sinks.items():
            known = {p.key() for p in summary.param_sinks.get(idx, [])}
            for p in paths:
                if p.key() not in known:
                    summary.param_sinks.setdefault(idx, []).append(p)
                    known.add(p.key())

    def store_attr(self, cls: ClassInfo, attr: str, taint: Taint) -> None:
        if not taint.traces:
            return
        key = (cls.qualname, attr)
        merged = frozenset(
            sorted(self.attr_taint.get(key, frozenset()) | taint.traces)[:_MAX_TRACES]
        )
        self.attr_taint[key] = merged

    def read_attr(self, classes: Iterable[ClassInfo], attr: str) -> Taint:
        traces: Set[Tuple[Hop, ...]] = set()
        for cls in classes:
            for c in [*cls.mro(), *cls.all_subclasses()]:
                traces |= self.attr_taint.get((c.qualname, attr), frozenset())
        return Taint(frozenset(sorted(traces)[:_MAX_TRACES]), frozenset())


class _TaintWalker:
    """One pass of the forward taint walk over one function's body."""

    def __init__(
        self,
        analysis: TaintAnalysis,
        func: FunctionInfo,
        collect: Optional[List[TaintFinding]],
    ) -> None:
        self.a = analysis
        self.func = func
        self.cfg = analysis.config
        self.collect = collect
        self.env: Dict[str, Taint] = {}
        self.returns: Taint = CLEAN
        self.param_sinks: Dict[int, List[SinkPath]] = {}
        self.local_types = analysis._types_for(func)
        for i, name in enumerate(func.params):
            self.env[name] = Taint(params=frozenset({i}))

    def run(self) -> None:
        self.exec_block(self.func.node.body)

    # -- statements ----------------------------------------------------
    def exec_block(self, stmts: Sequence[ast.stmt]) -> None:
        for stmt in stmts:
            self.exec_stmt(stmt)

    def exec_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            t = self.eval(stmt.value)
            for tgt in stmt.targets:
                self.assign(tgt, t)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self.assign(stmt.target, self.eval(stmt.value))
        elif isinstance(stmt, ast.AugAssign):
            t = self.eval(stmt.value).union(self.eval(stmt.target))
            self.assign(stmt.target, t)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.returns = self.returns.union(self.eval(stmt.value))
        elif isinstance(stmt, ast.Expr):
            self.eval(stmt.value)
        elif isinstance(stmt, (ast.If,)):
            self.eval(stmt.test)
            saved = dict(self.env)
            self.exec_block(stmt.body)
            env_body = self.env
            self.env = dict(saved)
            self.exec_block(stmt.orelse)
            self._merge_env(env_body)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self.assign(stmt.target, self.eval(stmt.iter))
            for _ in range(2):  # propagate loop-carried taint
                self.exec_block(stmt.body)
            self.exec_block(stmt.orelse)
        elif isinstance(stmt, ast.While):
            self.eval(stmt.test)
            for _ in range(2):
                self.exec_block(stmt.body)
            self.exec_block(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                t = self.eval(item.context_expr)
                if item.optional_vars is not None:
                    self.assign(item.optional_vars, t)
            self.exec_block(stmt.body)
        elif isinstance(stmt, ast.Try):
            self.exec_block(stmt.body)
            for handler in stmt.handlers:
                self.exec_block(handler.body)
            self.exec_block(stmt.orelse)
            self.exec_block(stmt.finalbody)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            pass  # analyzed separately
        else:
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self.eval(child)

    def _merge_env(self, other: Dict[str, Taint]) -> None:
        for name, t in other.items():
            self.env[name] = self.env.get(name, CLEAN).union(t)

    def assign(self, target: ast.AST, taint: Taint) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = taint
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self.assign(elt, taint)
        elif isinstance(target, ast.Starred):
            self.assign(target.value, taint)
        elif isinstance(target, ast.Attribute):
            chain = _dotted(target)
            if (
                chain is not None
                and len(chain) == 2
                and chain[0] == "self"
                and self.func.cls is not None
            ):
                self.a.store_attr(self.func.cls, chain[1], taint)
        elif isinstance(target, ast.Subscript):
            base = target.value
            if isinstance(base, ast.Name):
                self.env[base.id] = self.env.get(base.id, CLEAN).union(taint)
            else:
                self.assign(base, taint)

    # -- expressions ---------------------------------------------------
    def eval(self, node: Optional[ast.AST]) -> Taint:
        if node is None or isinstance(node, (ast.Constant, ast.Lambda, ast.JoinedStr)):
            return CLEAN
        if isinstance(node, ast.Name):
            return self.env.get(node.id, CLEAN)
        if isinstance(node, ast.Attribute):
            if node.attr in self.cfg.metadata_attrs:
                self.eval(node.value)
                return CLEAN
            base = self.eval(node.value)
            chain = _dotted(node)
            if chain is not None:
                note = self.cfg.is_source_chain(chain)
                if note is not None:
                    hop = Hop(self.func.ctx.display, node.lineno, note)
                    base = base.union(Taint(traces=frozenset({(hop,)})))
                classes = self.a.index.receiver_classes(
                    chain[:-1], self.func, self.local_types
                )
                if classes:
                    base = base.union(self.a.read_attr(classes, chain[-1]))
            return base
        if isinstance(node, ast.Subscript):
            # index taint does not move content: `masks[i]` is not
            # tainted just because the loop counter `i` is.
            self.eval(node.slice)
            return self.eval(node.value)
        if isinstance(node, ast.Call):
            return self.eval_call(node)
        if isinstance(node, ast.BoolOp):
            return CLEAN.union(*(self.eval(v) for v in node.values))
        if isinstance(node, ast.BinOp):
            return self.eval(node.left).union(self.eval(node.right))
        if isinstance(node, ast.UnaryOp):
            return self.eval(node.operand)
        if isinstance(node, ast.Compare):
            t = self.eval(node.left)
            for c in node.comparators:
                self.eval(c)
            return t
        if isinstance(node, ast.IfExp):
            self.eval(node.test)
            return self.eval(node.body).union(self.eval(node.orelse))
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return CLEAN.union(*(self.eval(e) for e in node.elts))
        if isinstance(node, ast.Dict):
            return CLEAN.union(
                *(self.eval(k) for k in node.keys if k is not None),
                *(self.eval(v) for v in node.values),
            )
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            for gen in node.generators:
                self.assign(gen.target, self.eval(gen.iter))
            return self.eval(node.elt)
        if isinstance(node, ast.DictComp):
            for gen in node.generators:
                self.assign(gen.target, self.eval(gen.iter))
            return self.eval(node.key).union(self.eval(node.value))
        if isinstance(node, ast.Starred):
            return self.eval(node.value)
        if isinstance(node, (ast.Await, ast.YieldFrom)):
            return self.eval(node.value)
        if isinstance(node, ast.Yield):
            if node.value is not None:
                self.returns = self.returns.union(self.eval(node.value))
            return CLEAN
        return CLEAN

    def eval_call(self, call: ast.Call) -> Taint:
        cfg = self.cfg
        pos = [self.eval(a) for a in call.args]
        kw = {k.arg: self.eval(k.value) for k in call.keywords}
        recv_taint = CLEAN
        chain: Optional[Tuple[str, ...]] = None
        if isinstance(call.func, ast.Attribute):
            recv_taint = self.eval(call.func.value)
            chain = _dotted(call.func)

        self._check_sink(call, chain, pos)

        # sanitizers: the call result is a statistic, not raw data.
        if isinstance(call.func, ast.Attribute) and call.func.attr in cfg.sanitizer_methods:
            return CLEAN
        if isinstance(call.func, ast.Name) and call.func.id in cfg.sanitizer_funcs:
            return CLEAN
        if (
            chain is not None
            and len(chain) >= 2
            and chain[-1] in cfg.sanitizer_funcs
        ):
            return CLEAN  # e.g. np.mean handled above; module-level helpers here

        # mutator calls feed their arguments back into the receiver.
        if (
            isinstance(call.func, ast.Attribute)
            and call.func.attr in cfg.mutators
            and (pos or kw)
        ):
            arg_union = CLEAN.union(*pos, *kw.values())
            if arg_union:
                self.assign(call.func.value, arg_union)

        callees, constructed = self.a.index.callees(call, self.func, self.local_types)
        higher_order = self._higher_order_taint(call)

        if not callees:
            if constructed is not None:
                return CLEAN.union(*pos, *kw.values(), higher_order)
            # unresolved: conservatively pass everything through.
            return CLEAN.union(recv_taint, *pos, *kw.values(), higher_order)

        result = higher_order
        for callee in callees:
            offset = 1 if (callee.cls is not None and callee.params[:1] == ["self"]) else 0
            args_by_param = self._bind_args(callee, offset, call, pos, kw)
            summary = self.a.summaries.get(callee.qualname, TaintSummary())
            hop = Hop(
                self.func.ctx.display,
                call.lineno,
                f"through `{callee.name}()`",
            )
            ret = Taint(traces=summary.returns.traces)
            for pidx in summary.returns.params:
                at = args_by_param.get(pidx)
                if at is not None:
                    ret = ret.union(at.extended(hop))
            result = result.union(ret)
            self._propagate_param_sinks(callee, summary, args_by_param, call)
        if constructed is not None:
            result = result.union(*pos, *kw.values())
        return result

    def _bind_args(
        self,
        callee: FunctionInfo,
        offset: int,
        call: ast.Call,
        pos: List[Taint],
        kw: Dict[str, Taint],
    ) -> Dict[int, Taint]:
        params = callee.params
        out: Dict[int, Taint] = {}
        for i, t in enumerate(pos):
            pidx = i + offset
            if pidx < len(params):
                out[pidx] = out.get(pidx, CLEAN).union(t)
        for name, t in kw.items():
            if name in params:
                out[params.index(name)] = out.get(params.index(name), CLEAN).union(t)
        return out

    def _higher_order_taint(self, call: ast.Call) -> Taint:
        """A function passed as an argument (``executor.map(fn, items)``)
        contributes its return taint to the call result."""
        out = CLEAN
        for arg in call.args:
            if isinstance(arg, (ast.Name, ast.Attribute)):
                fn = self.a.index.function_named(arg, self.func)
                if fn is not None:
                    summary = self.a.summaries.get(fn.qualname)
                    if summary is not None and summary.returns.traces:
                        hop = Hop(
                            self.func.ctx.display,
                            call.lineno,
                            f"mapped through `{fn.name}()`",
                        )
                        out = out.union(
                            Taint(traces=summary.returns.traces).extended(hop)
                        )
        return out

    # -- sinks ---------------------------------------------------------
    def _check_sink(
        self,
        call: ast.Call,
        chain: Optional[Tuple[str, ...]],
        pos: List[Taint],
    ) -> None:
        cfg = self.cfg
        if chain is None or chain[-1] not in cfg.sink_methods:
            return
        if _is_comm_family(self.func.cls):
            return  # the transport itself is not a leak site
        if not _receiver_is_comm(chain, self.func, self.local_types, self.a.index):
            return
        arg_idx = cfg.sink_methods[chain[-1]]
        taint = CLEAN
        if arg_idx < len(pos):
            taint = pos[arg_idx]
        else:
            for k in call.keywords:
                if k.arg in ("payload", "payloads"):
                    taint = self.eval(k.value)
        if not taint:
            return
        if _line_annotated(self.func.ctx, call.lineno, _PRIVACY_OK_RE):
            return
        sink = chain[-1]
        sink_hop = Hop(
            self.func.ctx.display,
            call.lineno,
            f"reaches uplink sink `{sink}` unsanitized",
        )
        if self.collect is not None:
            for trace in taint.traces:
                self.collect.append(
                    TaintFinding(
                        path=self.func.ctx.display,
                        line=call.lineno,
                        sink=sink,
                        trace=trace + (sink_hop,),
                    )
                )
        for pidx in taint.params:
            path = SinkPath(hops=(sink_hop,), sink=sink)
            known = {p.key() for p in self.param_sinks.get(pidx, [])}
            if path.key() not in known:
                self.param_sinks.setdefault(pidx, []).append(path)

    def _propagate_param_sinks(
        self,
        callee: FunctionInfo,
        summary: TaintSummary,
        args_by_param: Dict[int, Taint],
        call: ast.Call,
    ) -> None:
        if not summary.param_sinks:
            return
        hop = Hop(
            self.func.ctx.display,
            call.lineno,
            f"passed into `{callee.name}()`",
        )
        for pidx, paths in summary.param_sinks.items():
            at = args_by_param.get(pidx)
            if at is None or not at:
                continue
            for path in paths:
                if at.traces and self.collect is not None:
                    for trace in at.traces:
                        self.collect.append(
                            TaintFinding(
                                path=path.hops[-1].path,
                                line=path.hops[-1].line,
                                sink=path.sink,
                                trace=trace + (hop,) + path.hops,
                            )
                        )
                for caller_pidx in at.params:
                    new = SinkPath(hops=(hop,) + path.hops, sink=path.sink)
                    if len(new.hops) > _MAX_HOPS:
                        continue
                    known = {p.key() for p in self.param_sinks.get(caller_pidx, [])}
                    if new.key() not in known:
                        self.param_sinks.setdefault(caller_pidx, []).append(new)


__all__ = [
    "module_name_for",
    "ProjectIndex",
    "FunctionInfo",
    "ClassInfo",
    "Hop",
    "Taint",
    "TaintConfig",
    "TaintAnalysis",
    "TaintFinding",
]

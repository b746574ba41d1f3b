"""Project index for the linter's whole-program rule (RL010).

One index of modules, classes, functions and imports, with call
resolution (virtual dispatch over ``self.*`` attributes included),
built from already-parsed :class:`~repro.analysis.lint.FileContext`
objects.  Like the rest of the linter it is pure stdlib and never
imports the code under analysis.  RL010's happens-before pass
(:mod:`repro.analysis.concurrency`) is built on it.  The privacy of
uplinks is checked at runtime, by
:class:`~repro.analysis.sanitize.ProtocolMonitor`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.lint import FileContext


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
            return []  # a module-level name or a bare class, not an instance
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
    ) -> List[FunctionInfo]:
        """Callee candidates of ``call`` (a constructor's ``__init__``)."""
        fn = call.func
        if isinstance(fn, ast.Name):
            f: Optional[FunctionInfo] = func
            while f is not None:
                if fn.id in f.nested:
                    return [f.nested[fn.id]]
                f = f.parent
            ci = self.find_class(func.module, fn.id)
            if ci is not None:
                return self.resolve_method(ci, "__init__")[:1]
            target = self.find_function(func.module, fn.id)
            return [target] if target is not None else []
        chain = _dotted(fn) if isinstance(fn, ast.Attribute) else None
        if chain is None:
            return []
        out: List[FunctionInfo] = []
        for c in self.receiver_classes(chain[:-1], func, local_types):
            out.extend(self.resolve_method(c, chain[-1]))
        seen: Set[str] = set()
        return [f for f in out if not (f.qualname in seen or seen.add(f.qualname))]

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


__all__ = [
    "module_name_for",
    "ProjectIndex",
    "FunctionInfo",
    "ClassInfo",
]

"""Package index: classes, functions, imports and a lightweight call graph.

The index is purely syntactic — nothing is imported or executed.  Names are
resolved best-effort through each module's import table, which is enough to
follow ``self.helper(...)``, ``module.helper(...)`` and bare ``helper(...)``
calls *within* the linted package; calls that escape the package resolve to
nothing and the taint walk simply stops there.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .source import SourceModule

__all__ = ["FunctionInfo", "ClassInfo", "PackageIndex"]


@dataclass
class FunctionInfo:
    """One function or method definition."""

    module: str
    name: str
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    class_name: Optional[str] = None
    #: Positional-or-keyword parameter names, including ``self``.
    params: Tuple[str, ...] = ()

    @property
    def qualname(self) -> str:
        inner = f"{self.class_name}.{self.name}" if self.class_name else self.name
        return f"{self.module}:{inner}"


@dataclass
class ClassInfo:
    """One class definition with resolved base names."""

    module: str
    name: str
    node: ast.ClassDef
    #: Bases resolved to dotted names (best effort; may be external).
    bases: Tuple[str, ...] = ()
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: Class-scope simple assignments, e.g. ``is_oracle = True``.
    attrs: Dict[str, ast.expr] = field(default_factory=dict)

    @property
    def qualname(self) -> str:
        return f"{self.module}.{self.name}"


def _dotted(node: ast.expr) -> Optional[str]:
    """``a.b.c`` attribute chains as a dotted string; None otherwise."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _params(node: ast.AST) -> Tuple[str, ...]:
    args = node.args
    names = [a.arg for a in getattr(args, "posonlyargs", [])]
    names += [a.arg for a in args.args]
    return tuple(names)


class PackageIndex:
    """Cross-module symbol and call-graph index over parsed sources."""

    def __init__(self, modules: Dict[str, SourceModule]):
        self.modules = modules
        self.classes: Dict[str, ClassInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        #: module -> local name -> dotted target.
        self.imports: Dict[str, Dict[str, str]] = {}
        for mod in modules.values():
            self._index_module(mod)
        # Base names can only be resolved once every module's import table
        # exists, so bases are filled in a second pass.
        for mod in modules.values():
            self._resolve_bases(mod)

    # ------------------------------------------------------------- building

    def _index_module(self, mod: SourceModule) -> None:
        imports: Dict[str, str] = {}
        is_package = mod.path.name == "__init__.py"
        pkg_parts = mod.module.split(".")
        if not is_package:
            pkg_parts = pkg_parts[:-1]

        for node in ast.walk(mod.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imports[alias.asname or alias.name.split(".")[0]] = (
                        alias.name if alias.asname else alias.name.split(".")[0]
                    )
                    if alias.asname:
                        imports[alias.asname] = alias.name
            elif isinstance(node, ast.ImportFrom):
                base: List[str] = []
                if node.level:
                    up = node.level - 1
                    base = pkg_parts[: len(pkg_parts) - up] if up else list(pkg_parts)
                if node.module:
                    base = base + node.module.split(".") if node.level else node.module.split(".")
                prefix = ".".join(base)
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    target = f"{prefix}.{alias.name}" if prefix else alias.name
                    imports[alias.asname or alias.name] = target
        self.imports[mod.module] = imports

        for stmt in mod.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = FunctionInfo(mod.module, stmt.name, stmt,
                                    params=_params(stmt))
                self.functions[f"{mod.module}.{stmt.name}"] = info
            elif isinstance(stmt, ast.ClassDef):
                self._index_class(mod, stmt)

    def _index_class(self, mod: SourceModule, node: ast.ClassDef) -> None:
        cls = ClassInfo(mod.module, node.name, node)
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                cls.methods[stmt.name] = FunctionInfo(
                    mod.module, stmt.name, stmt, class_name=node.name,
                    params=_params(stmt),
                )
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        cls.attrs[target.id] = stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                if isinstance(stmt.target, ast.Name):
                    cls.attrs[stmt.target.id] = stmt.value
        self.classes[cls.qualname] = cls

    def _resolve_bases(self, mod: SourceModule) -> None:
        for stmt in mod.tree.body:
            if not isinstance(stmt, ast.ClassDef):
                continue
            cls = self.classes[f"{mod.module}.{stmt.name}"]
            bases = []
            for base in stmt.bases:
                dotted = _dotted(base)
                if dotted:
                    bases.append(self.resolve(mod.module, dotted))
            cls.bases = tuple(bases)

    # ------------------------------------------------------------ resolution

    def resolve(self, module: str, dotted: str) -> str:
        """Resolve a dotted name through ``module``'s import table."""
        head, _, rest = dotted.partition(".")
        imports = self.imports.get(module, {})
        if head in imports:
            target = imports[head]
            return f"{target}.{rest}" if rest else target
        local = f"{module}.{head}"
        if local in self.classes or local in self.functions:
            return f"{local}.{rest}" if rest else local
        return dotted

    def find_class(self, qualname: str) -> Optional[ClassInfo]:
        return self.classes.get(qualname)

    def iter_ancestry(self, cls: ClassInfo) -> Iterator[ClassInfo]:
        """The class and every in-package ancestor, MRO-ish order."""
        seen = {cls.qualname}
        queue = [cls]
        while queue:
            current = queue.pop(0)
            yield current
            for base in current.bases:
                parent = self.classes.get(base)
                if parent is not None and parent.qualname not in seen:
                    seen.add(parent.qualname)
                    queue.append(parent)

    def has_base(self, cls: ClassInfo, suffixes: Sequence[str]) -> bool:
        """Whether any (transitive) base name ends with one of ``suffixes``.

        Suffix matching lets fixtures that import the real
        ``repro.predictors.base.MDPredictor`` — without that module being
        part of the linted tree — still be recognised as predictors.
        """
        for ancestor in self.iter_ancestry(cls):
            for base in ancestor.bases:
                if any(base == s or base.endswith("." + s) for s in suffixes):
                    return True
        return False

    def find_method(self, cls: ClassInfo, name: str) -> Optional[FunctionInfo]:
        for ancestor in self.iter_ancestry(cls):
            if name in ancestor.methods:
                return ancestor.methods[name]
        return None

    def class_attr(self, cls: ClassInfo, name: str) -> Optional[ast.expr]:
        for ancestor in self.iter_ancestry(cls):
            if name in ancestor.attrs:
                return ancestor.attrs[name]
        return None

    def resolve_call(
        self,
        module: str,
        current_class: Optional[ClassInfo],
        call: ast.Call,
    ) -> List[Tuple[FunctionInfo, Optional[ClassInfo]]]:
        """Candidate in-package callees of ``call``.

        Returns ``(function, class-for-self)`` pairs; the class is the one
        ``self`` binds to inside the callee (for methods), else None.
        """
        func = call.func
        out: List[Tuple[FunctionInfo, Optional[ClassInfo]]] = []
        if isinstance(func, ast.Name):
            resolved = self.resolve(module, func.id)
            target = self.functions.get(resolved)
            if target is not None:
                out.append((target, None))
        elif isinstance(func, ast.Attribute):
            if isinstance(func.value, ast.Name) and func.value.id == "self":
                if current_class is not None:
                    method = self.find_method(current_class, func.attr)
                    if method is not None:
                        out.append((method, current_class))
            else:
                dotted = _dotted(func)
                if dotted:
                    resolved = self.resolve(module, dotted)
                    target = self.functions.get(resolved)
                    if target is not None:
                        out.append((target, None))
        return out

"""Whole-package call graph and reachability over the :class:`PackageIndex`.

The index resolves one call at a time; the interprocedural rules (eq-*,
conc-*) need a whole-package **function call graph** built on top of it:
edges from each function/method to every in-package callee the index can
resolve, plus "references class C" edges.  Reachability is deliberately
conservative: touching a class (instantiating it, passing it around,
calling a classmethod) reaches *all* of its methods and its in-package
ancestors, because instance method calls through arbitrary variables
cannot be resolved statically.  When a module is first reached, its
top-level non-import statements are scanned too, so registry tables
(``PREDICTORS = {"x": PredictorSpec("x", Xpred)}``) reach the classes
they name.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .index import ClassInfo, FunctionInfo, PackageIndex, _dotted

__all__ = ["CallGraph", "Reachable"]


@dataclass
class Reachable:
    """Closure of one BFS over the call graph."""

    functions: Set[str] = field(default_factory=set)  # FunctionInfo.qualname
    classes: Set[str] = field(default_factory=set)    # ClassInfo.qualname
    modules: Set[str] = field(default_factory=set)    # dotted module names


class CallGraph:
    """Call edges derived once per lint run."""

    def __init__(self, index: PackageIndex):
        self.index = index
        #: Every function and method, keyed by qualname.
        self.functions: Dict[str, FunctionInfo] = {}
        #: function qualname -> callee function qualnames.
        self.calls: Dict[str, Tuple[str, ...]] = {}
        #: function qualname -> in-package class qualnames it references.
        self.class_refs: Dict[str, Tuple[str, ...]] = {}
        #: module -> (functions, classes) referenced from top-level
        #: non-import statements (registry dicts, module constants).
        self._toplevel_refs: Dict[str, Tuple[Tuple[str, ...],
                                             Tuple[str, ...]]] = {}
        self._build()

    # -------------------------------------------------------------- building

    def _build(self) -> None:
        index = self.index
        for info in index.functions.values():
            self.functions[info.qualname] = info
        for cls in index.classes.values():
            for method in cls.methods.values():
                self.functions[method.qualname] = method

        for qualname in sorted(self.functions):
            info = self.functions[qualname]
            cls = None
            if info.class_name is not None:
                cls = index.classes.get(f"{info.module}.{info.class_name}")
            callees, classes = self._scan(info.module, cls, info.node)
            self.calls[qualname] = callees
            self.class_refs[qualname] = classes

        for name in sorted(index.modules):
            self._toplevel_refs[name] = self._scan_toplevel(name)

    def _scan(self, module: str, cls: Optional[ClassInfo],
              node: ast.AST) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
        """Callee qualnames and referenced class qualnames under ``node``."""
        index = self.index
        callees: Set[str] = set()
        classes: Set[str] = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                for target, _ in index.resolve_call(module, cls, sub):
                    callees.add(target.qualname)
                dotted = _dotted(sub.func)
                if dotted is not None and not dotted.startswith("self."):
                    self._resolve_dotted_call(module, dotted, callees, classes)
            elif isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                resolved = index.resolve(module, sub.id)
                if resolved in index.classes:
                    classes.add(resolved)
        return tuple(sorted(callees)), tuple(sorted(classes))

    def _resolve_dotted_call(self, module: str, dotted: str,
                             callees: Set[str], classes: Set[str]) -> None:
        """Resolve ``a.b.c(...)`` to a class, classmethod or function."""
        index = self.index
        resolved = index.resolve(module, dotted)
        if resolved in index.classes:
            classes.add(resolved)
            return
        head, _, last = resolved.rpartition(".")
        owner = index.classes.get(head)
        if owner is not None:
            classes.add(owner.qualname)
            method = index.find_method(owner, last)
            if method is not None:
                callees.add(method.qualname)

    def _scan_toplevel(self, module: str) -> Tuple[Tuple[str, ...],
                                                   Tuple[str, ...]]:
        mod = self.index.modules[module]
        callees: Set[str] = set()
        classes: Set[str] = set()
        for stmt in mod.tree.body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom,
                                 ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue
            sub_callees, sub_classes = self._scan(module, None, stmt)
            callees |= set(sub_callees)
            classes |= set(sub_classes)
        return tuple(sorted(callees)), tuple(sorted(classes))

    # ---------------------------------------------------------- reachability

    def reachable(self, seeds: Iterable[str]) -> Reachable:
        """BFS from seed function qualnames; see the module docstring."""
        reach = Reachable()
        queue: List[str] = [s for s in seeds if s in self.functions]
        while queue:
            qualname = queue.pop()
            if qualname in reach.functions:
                continue
            reach.functions.add(qualname)
            info = self.functions[qualname]
            self._reach_module(info.module, reach, queue)
            queue.extend(self.calls.get(qualname, ()))
            for cls_name in self.class_refs.get(qualname, ()):
                self._reach_class(cls_name, reach, queue)
        return reach

    def _reach_class(self, qualname: str, reach: Reachable,
                     queue: List[str]) -> None:
        if qualname in reach.classes:
            return
        cls = self.index.classes.get(qualname)
        if cls is None:
            return
        reach.classes.add(qualname)
        for ancestor in self.index.iter_ancestry(cls):
            reach.classes.add(ancestor.qualname)
            self._reach_module(ancestor.module, reach, queue)
            for method in ancestor.methods.values():
                queue.append(method.qualname)

    def _reach_module(self, module: str, reach: Reachable,
                      queue: List[str]) -> None:
        if module in reach.modules:
            return
        reach.modules.add(module)
        callees, classes = self._toplevel_refs.get(module, ((), ()))
        queue.extend(callees)
        for cls_name in classes:
            self._reach_class(cls_name, reach, queue)

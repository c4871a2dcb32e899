"""Per-class semantic summaries of the timing engines, for the eq-* rules.

A summary reduces an engine class to the surfaces that must stay aligned
between the scalar and batched implementations:

* which config fields it reads (``self.config.x``, hoisted ``cfg = ...``
  aliases, and field-valued locals like ``alu_lat = cfg.alu_latency``),
* which stats fields it writes (plain and augmented assignment, nested
  sub-stat objects collapse to their first component, and stats *method*
  calls recorded as ``name()``),
* which collaborator hooks it invokes on the predictor, branch predictor
  and memory hierarchy — through direct calls and bound-method aliases
  (``p_on_branch = self.predictor.on_branch``), with the fused
  ``predict_train`` standing for the scalar ``predict`` + ``train`` pair,
* which integer literals appear in a statement together with a config
  field (catching "scalar adds ``cfg.sb_drain_latency + 64``, batched
  forgot the 64" drift).  Literals 0 and 1 are excluded: zero-filled
  port lists and off-by-one loop bounds are structural noise, not tuning
  constants.

Everything is keyed to the *first* source line an element occurs on, so
findings anchor where a suppression pragma can sit.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from .index import ClassInfo, PackageIndex

__all__ = ["EngineSummary", "summarize_engine", "FUSED_HOOKS",
           "IGNORED_HOOKS"]

#: ``self.<attr>`` collaborator roots and the kind each one denotes.
_COLLABORATORS = {
    "config": "config",
    "stats": "stats",
    "predictor": "predictor",
    "branch_predictor": "branch",
    "hierarchy": "hierarchy",
}

#: Fused hook -> the scalar-path hooks it stands for, on the memory
#: dependence predictor: ``predict_train`` composes the same ``lookup`` /
#: ``update`` halves as the scalar ``predict`` + ``train`` pair.
FUSED_HOOKS: Dict[str, Tuple[str, ...]] = {
    "predict_train": ("predict", "train"),
}

#: Priming hooks with no scalar counterpart by design: only the batched
#: engine precomputes a run's keys up front and writes history back.
IGNORED_HOOKS = frozenset({"finish", "prime"})

#: Literals too generic to signal tuning-constant drift.
_NOISE_LITERALS = frozenset({0, 1})


@dataclass
class EngineSummary:
    """Semantic surface of one engine class (element -> first line)."""

    config_reads: Dict[str, int] = field(default_factory=dict)
    stats_writes: Dict[str, int] = field(default_factory=dict)
    #: (collaborator kind, hook name) -> line.
    hook_calls: Dict[Tuple[str, str], int] = field(default_factory=dict)
    #: (config field, integer literal) -> line.
    literal_pairs: Dict[Tuple[str, int], int] = field(default_factory=dict)


class _MethodScan(ast.NodeVisitor):
    """One pass over a method body, aliases threaded in source order."""

    def __init__(self, summary: EngineSummary):
        self.summary = summary
        #: local name -> collaborator kind ("config", "stats", ...).
        self.aliases: Dict[str, str] = {}
        #: local name -> config field it holds (``lat = cfg.alu_latency``).
        self.field_locals: Dict[str, str] = {}
        #: local name -> (collaborator kind, hook) bound-method alias.
        self.bound_methods: Dict[str, Tuple[str, str]] = {}

    # -------------------------------------------------------------- recording

    def _record(self, table: Dict, key, line: int) -> None:
        if key not in table:
            table[key] = line

    def _read_config(self, fieldname: str, line: int) -> None:
        self._record(self.summary.config_reads, fieldname, line)

    def _write_stats(self, fieldname: str, line: int) -> None:
        self._record(self.summary.stats_writes, fieldname, line)

    def _call_hook(self, kind: str, hook: str, line: int) -> None:
        if hook in IGNORED_HOOKS:
            return
        hooks = FUSED_HOOKS.get(hook, (hook,)) if kind == "predictor" \
            else (hook,)
        for mapped in hooks:
            self._record(self.summary.hook_calls, (kind, mapped), line)

    # ------------------------------------------------------------ resolution

    def _root_kind(self, node: ast.expr) -> Optional[str]:
        """Collaborator kind of an expression, or None."""
        if isinstance(node, ast.Name):
            return self.aliases.get(node.id)
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"):
            return _COLLABORATORS.get(node.attr)
        return None

    def _attr_chain(self, node: ast.expr) -> Tuple[Optional[str],
                                                   Tuple[str, ...]]:
        """(root kind, attribute chain) for ``root.a.b`` expressions."""
        chain = []
        while isinstance(node, ast.Attribute):
            kind = self._root_kind(node.value)
            chain.append(node.attr)
            if kind is not None:
                return kind, tuple(reversed(chain))
            node = node.value
        return None, ()

    # ----------------------------------------------------------- assignments

    def _bind(self, name: str, value: ast.expr, line: int) -> None:
        """Track what an assignment binds ``name`` to; drop stale aliases."""
        self.aliases.pop(name, None)
        self.field_locals.pop(name, None)
        self.bound_methods.pop(name, None)

        if isinstance(value, ast.Name) and value.id in self.aliases:
            self.aliases[name] = self.aliases[value.id]
            return
        kind, chain = self._attr_chain(value)
        if kind is not None and len(chain) == 1:
            if kind == "config":
                # ``lat = cfg.alu_latency``: a field-valued local.
                self.field_locals[name] = chain[0]
                self._read_config(chain[0], line)
            elif kind in ("predictor", "branch", "hierarchy"):
                # ``timed_load = self.hierarchy.timed_load``.
                self.bound_methods[name] = (kind, chain[0])
            return
        if isinstance(value, ast.Attribute) and self._root_kind(value) is not None:
            self.aliases[name] = self._root_kind(value)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            if isinstance(target, ast.Name):
                self._bind(target.id, node.value, node.lineno)
            else:
                self._write_target(target, node.lineno)
                self.visit(target)
        self.visit(node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            if isinstance(node.target, ast.Name):
                self._bind(node.target.id, node.value, node.lineno)
            else:
                self._write_target(node.target, node.lineno)
            self.visit(node.value)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._write_target(node.target, node.lineno)
        self.visit(node.target)
        self.visit(node.value)

    def _write_target(self, target: ast.expr, line: int) -> None:
        while isinstance(target, ast.Subscript):
            target = target.value
        kind, chain = self._attr_chain(target)
        if kind == "stats" and chain:
            self._write_stats(chain[0], line)

    # ----------------------------------------------------------------- reads

    def visit_Attribute(self, node: ast.Attribute) -> None:
        kind = self._root_kind(node.value)
        if kind == "config":
            self._read_config(node.attr, node.lineno)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            kind = self._root_kind(func.value)
            if kind == "stats":
                self._write_stats(f"{func.attr}()", node.lineno)
            elif kind in ("predictor", "branch", "hierarchy"):
                self._call_hook(kind, func.attr, node.lineno)
        elif isinstance(func, ast.Name) and func.id in self.bound_methods:
            kind, hook = self.bound_methods[func.id]
            self._call_hook(kind, hook, node.lineno)
        self.generic_visit(node)


def _iter_shallow(stmt: ast.stmt):
    """The statement and its expressions, stopping at nested statements.

    A compound statement (``if``/``for``/``while``/``with``) contributes
    only its header expressions; the statements of its body are visited
    in their own right, so a literal deep inside one branch never pairs
    with a config field read in another.
    """
    stack: list = [stmt]
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, ast.stmt):
                stack.append(child)


def _scan_literals(scan: _MethodScan, stmt: ast.stmt) -> None:
    """Statement-level (config field x integer literal) association.

    Runs after the alias pass with the method's final alias tables: a
    statement that mentions both a config field (directly or through a
    field-valued local) and a non-noise integer literal contributes the
    cross product of its fields and literals.
    """
    fields = []
    literals = []
    for node in _iter_shallow(stmt):
        if isinstance(node, ast.Attribute):
            if scan._root_kind(node.value) == "config":
                fields.append(node.attr)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            fieldname = scan.field_locals.get(node.id)
            if fieldname is not None:
                fields.append(fieldname)
        elif isinstance(node, ast.Constant):
            if (type(node.value) is int
                    and node.value not in _NOISE_LITERALS):
                literals.append((node.value, node.lineno))
    for fieldname in fields:
        for literal, line in literals:
            # Anchored at the literal itself: that line is where a
            # suppression pragma for a deliberate one-sided constant sits.
            scan._record(scan.summary.literal_pairs,
                         (fieldname, literal), line)


def _scan_method(summary: EngineSummary, method_node: ast.AST) -> None:
    scan = _MethodScan(summary)
    # Constructor-style config parameters alias the config collaborator.
    for arg in getattr(method_node.args, "args", []):
        if arg.arg == "config":
            scan.aliases["config"] = "config"
    for stmt in method_node.body:
        scan.visit(stmt)
    for node in ast.walk(method_node):
        if isinstance(node, ast.stmt) and not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef,
                       ast.Import, ast.ImportFrom)):
            _scan_literals(scan, node)


def summarize_engine(index: PackageIndex, cls: ClassInfo) -> EngineSummary:
    """Merge the summaries of every method of ``cls`` and its ancestors."""
    summary = EngineSummary()
    for ancestor in index.iter_ancestry(cls):
        for name in sorted(ancestor.methods):
            _scan_method(summary, ancestor.methods[name].node)
    return summary

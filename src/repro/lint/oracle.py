"""oracle-leak: ground-truth reads reachable from predict time.

The harness contract (:class:`repro.predictors.base.MDPredictor.lookup`)
is that a predictor sees only the load's ``pc`` (and ``seq``) at predict
time.  ``lookup(seq, pc, truth)`` also receives the load's ground truth
— ``truth``, its store distance, store and bypass class — but only the
oracle predictors (classes carrying ``is_oracle = True``) may read it.
A read anywhere on a non-oracle predict-time path is exactly the
unintended information flow SPOILER-style attacks exploit in reverse:
the predictor scores as if it had hardware it cannot build.

The check taints the ``truth`` parameter of every non-oracle
predictor's ``lookup()`` — which the composed ``predict()`` and the
fused ``predict_train()`` both reach — and follows it through local
aliases and in-package helper calls (``self.helper(truth)``,
``module.helper(truth)``).  Any other use of a tainted name (indexing
it, unpacking it, passing it to a call the index cannot resolve) is a
finding.  A ``predict(uop)`` override, the object API, is checked the
old way: its ``uop`` parameter is tainted and reading a ground-truth
annotation (``bypass``, ``store_distance``, ``dep_store_seq``,
``has_dependence``) off it, an alias or a helper's parameter is a
finding.  Table-entry attributes that happen to share a name (e.g. a
MASCOT entry's ``bypass`` counter) are untouched because their receiver
is never tainted.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from .findings import Finding
from .index import ClassInfo, FunctionInfo, PackageIndex

__all__ = ["RULES", "check"]

RULE = "oracle-leak"

RULES: Dict[str, str] = {
    RULE: "non-oracle predictor predict-time path reads the load's ground "
          "truth (lookup's truth argument, or a MicroOp annotation: bypass "
          "/ store_distance / dep_store_seq / has_dependence)",
}

#: Ground-truth annotation fields of :class:`repro.trace.uop.MicroOp`.
GROUND_TRUTH_FIELDS = frozenset(
    {"bypass", "store_distance", "dep_store_seq", "has_dependence"}
)

#: Base-class names that mark a class as a predictor.
_PREDICTOR_BASES = ("predictors.base.MDPredictor", "MDPredictor")

#: Taint modes: a *value* taint makes every read of the name a finding
#: (lookup's ``truth``); a *field* taint only reads of the ground-truth
#: attributes (a ``predict(uop)`` override's micro-op).
_VALUE = "value"
_FIELD = "field"

#: Predict-time entry points: method name -> (tainted parameter position
#: after ``self``, taint mode).
_PREDICT_TIME_METHODS = (("lookup", 3, _VALUE), ("predict", 1, _FIELD))

Seeds = FrozenSet[Tuple[str, str]]


def _is_oracle(index: PackageIndex, cls: ClassInfo) -> bool:
    marker = index.class_attr(cls, "is_oracle")
    return isinstance(marker, ast.Constant) and marker.value is True


def _assignment_aliases(node: ast.AST) -> List[Tuple[str, str]]:
    """Simple ``new = old`` name aliases inside a function body."""
    aliases = []
    for child in ast.walk(node):
        if isinstance(child, ast.Assign) and isinstance(child.value, ast.Name):
            for target in child.targets:
                if isinstance(target, ast.Name):
                    aliases.append((target.id, child.value.id))
        elif (isinstance(child, ast.AnnAssign)
              and isinstance(child.value, ast.Name)
              and isinstance(child.target, ast.Name)):
            aliases.append((child.target.id, child.value.id))
    return aliases


def _tainted_names(func: FunctionInfo, seeds: Seeds) -> Dict[str, str]:
    """Seeds plus everything reachable through simple aliasing, with the
    taint mode each name carries."""
    tainted = dict(seeds)
    aliases = _assignment_aliases(func.node)
    changed = True
    while changed:
        changed = False
        for new, old in aliases:
            if old in tainted and new not in tainted:
                tainted[new] = tainted[old]
                changed = True
    return tainted


def _walk(
    index: PackageIndex,
    func: FunctionInfo,
    seeds: Seeds,
    self_class: Optional[ClassInfo],
    origin: str,
    visited: Set[Tuple[int, Seeds]],
    findings: List[Finding],
) -> None:
    # repro-lint: allow(det-id) -- per-process memo key; never ordered or persisted
    key = (id(func.node), seeds)
    if key in visited:
        return
    visited.add(key)
    tainted = _tainted_names(func, seeds)
    mod = index.modules.get(func.module)
    if mod is None:
        return

    def finding(node: ast.AST, what: str) -> None:
        findings.append(Finding(
            rule=RULE,
            module=func.module,
            path=str(mod.path),
            line=node.lineno,
            col=node.col_offset,
            message=(
                f"predict-time path of {origin} reads ground-truth {what} "
                f"in {func.qualname}; only oracle predictors "
                "(is_oracle = True) may read the load's ground truth"
            ),
            symbol=func.qualname,
        ))

    # Uses of a value-tainted name that pass the taint on rather than
    # read it: the right-hand side of an alias, an argument of a
    # resolved in-package call.
    passed: Set[ast.AST] = set()
    for node in ast.walk(func.node):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Name):
            if all(isinstance(t, ast.Name) for t in node.targets):
                passed.add(node.value)
        elif (isinstance(node, ast.AnnAssign)
              and isinstance(node.value, ast.Name)
              and isinstance(node.target, ast.Name)):
            passed.add(node.value)
        elif isinstance(node, ast.Call):
            for callee, callee_class in index.resolve_call(
                func.module, self_class, node
            ):
                params = list(callee.params)
                # Methods reached via self.m(...) bind args after self.
                offset = 1 if callee_class is not None else 0
                new_seeds: Set[Tuple[str, str]] = set()
                for position, arg in enumerate(node.args):
                    if (isinstance(arg, ast.Name) and arg.id in tainted
                            and position + offset < len(params)):
                        new_seeds.add((params[position + offset],
                                       tainted[arg.id]))
                        passed.add(arg)
                for keyword in node.keywords:
                    if (keyword.arg and isinstance(keyword.value, ast.Name)
                            and keyword.value.id in tainted
                            and keyword.arg in params):
                        new_seeds.add((keyword.arg,
                                       tainted[keyword.value.id]))
                        passed.add(keyword.value)
                if new_seeds:
                    next_class = callee_class
                    if next_class is None and callee.class_name is not None:
                        next_class = index.find_class(
                            f"{callee.module}.{callee.class_name}"
                        )
                    _walk(index, callee, frozenset(new_seeds), next_class,
                          origin, visited, findings)

    for node in ast.walk(func.node):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and node.attr in GROUND_TRUTH_FIELDS
            and isinstance(node.value, ast.Name)
            and tainted.get(node.value.id) == _FIELD
        ):
            finding(node, f"field '{node.value.id}.{node.attr}'")
        elif (
            isinstance(node, ast.Name)
            and isinstance(node.ctx, ast.Load)
            and tainted.get(node.id) == _VALUE
            and node not in passed
        ):
            finding(node, f"argument '{node.id}'")


def check(index: PackageIndex) -> List[Finding]:
    findings: List[Finding] = []
    visited: Set[Tuple[int, Seeds]] = set()
    for cls in sorted(index.classes.values(), key=lambda c: c.qualname):
        if not index.has_base(cls, _PREDICTOR_BASES):
            continue
        if _is_oracle(index, cls):
            continue
        for name, position, mode in _PREDICT_TIME_METHODS:
            method = index.find_method(cls, name)
            # Skip the base protocol itself: its abstract lookup and the
            # composed predict() only reach the subclass's lookup.
            if method is None or method.class_name == "MDPredictor":
                continue
            params = list(method.params)
            if len(params) <= position:
                continue
            _walk(index, method, frozenset({(params[position], mode)}), cls,
                  cls.qualname, visited, findings)
    return findings

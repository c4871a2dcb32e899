"""oracle-leak: ground-truth reads reachable from predict time.

The harness contract (:class:`repro.predictors.base.MDPredictor.lookup`)
is that a predictor sees only ``uop.pc`` and ``uop.seq`` at predict time;
the trace's ground-truth annotations — ``bypass``, ``store_distance``,
``dep_store_seq`` and the ``has_dependence`` property — are reserved for
the oracle predictors (classes carrying ``is_oracle = True``).  A read of
any of those fields anywhere on a non-oracle predict-time path is exactly
the unintended information flow SPOILER-style attacks exploit in reverse:
the predictor scores as if it had hardware it cannot build.

The check taints the ``uop`` parameter of every non-oracle predictor's
predict-time half — its ``lookup()``, which the composed ``predict()``
and the fused ``predict_train()`` both reach, plus any ``predict()``
override — and follows it through local aliases and in-package helper
calls (``self.helper(uop)``, ``module.helper(uop)``); reading a
ground-truth attribute off any tainted name is a finding.  Table-entry
attributes that happen to share a name (e.g. a MASCOT entry's ``bypass``
counter) are untouched because their receiver is never tainted.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from .findings import Finding
from .index import ClassInfo, FunctionInfo, PackageIndex

__all__ = ["RULES", "check"]

RULE = "oracle-leak"

RULES: Dict[str, str] = {
    RULE: "non-oracle predictor predict-time path reads a ground-truth "
          "MicroOp annotation (bypass / store_distance / dep_store_seq / "
          "has_dependence)",
}

#: Ground-truth annotation fields of :class:`repro.trace.uop.MicroOp`.
GROUND_TRUTH_FIELDS = frozenset(
    {"bypass", "store_distance", "dep_store_seq", "has_dependence"}
)

#: Base-class names that mark a class as a predictor.
_PREDICTOR_BASES = ("predictors.base.MDPredictor", "MDPredictor")

#: Predict-time entry points whose ``uop`` parameter is tainted.
_PREDICT_TIME_METHODS = ("lookup", "predict")


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


def _tainted_names(func: FunctionInfo, seeds: FrozenSet[str]) -> Set[str]:
    """Seeds plus everything reachable through simple aliasing."""
    tainted = set(seeds)
    aliases = _assignment_aliases(func.node)
    changed = True
    while changed:
        changed = False
        for new, old in aliases:
            if old in tainted and new not in tainted:
                tainted.add(new)
                changed = True
    return tainted


def _walk(
    index: PackageIndex,
    func: FunctionInfo,
    seeds: FrozenSet[str],
    self_class: Optional[ClassInfo],
    origin: str,
    visited: Set[Tuple[int, FrozenSet[str]]],
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

    for node in ast.walk(func.node):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and node.attr in GROUND_TRUTH_FIELDS
            and isinstance(node.value, ast.Name)
            and node.value.id in tainted
        ):
            findings.append(Finding(
                rule=RULE,
                module=func.module,
                path=str(mod.path),
                line=node.lineno,
                col=node.col_offset,
                message=(
                    f"predict-time path of {origin} reads ground-truth field "
                    f"'{node.value.id}.{node.attr}' in {func.qualname}; "
                    "only oracle predictors (is_oracle = True) may read "
                    "trace annotations"
                ),
                symbol=func.qualname,
            ))
        elif isinstance(node, ast.Call):
            for callee, callee_class in index.resolve_call(
                func.module, self_class, node
            ):
                params = list(callee.params)
                # Methods reached via self.m(...) bind args after self.
                offset = 1 if callee_class is not None else 0
                new_seeds: Set[str] = set()
                for position, arg in enumerate(node.args):
                    if (isinstance(arg, ast.Name) and arg.id in tainted
                            and position + offset < len(params)):
                        new_seeds.add(params[position + offset])
                for keyword in node.keywords:
                    if (keyword.arg and isinstance(keyword.value, ast.Name)
                            and keyword.value.id in tainted
                            and keyword.arg in params):
                        new_seeds.add(keyword.arg)
                if new_seeds:
                    next_class = callee_class
                    if next_class is None and callee.class_name is not None:
                        next_class = index.find_class(
                            f"{callee.module}.{callee.class_name}"
                        )
                    _walk(index, callee, frozenset(new_seeds), next_class,
                          origin, visited, findings)


def check(index: PackageIndex) -> List[Finding]:
    findings: List[Finding] = []
    visited: Set[Tuple[int, FrozenSet[str]]] = set()
    for cls in sorted(index.classes.values(), key=lambda c: c.qualname):
        if not index.has_base(cls, _PREDICTOR_BASES):
            continue
        if _is_oracle(index, cls):
            continue
        for name in _PREDICT_TIME_METHODS:
            method = index.find_method(cls, name)
            # Skip the base protocol itself: its abstract lookup and the
            # composed predict() only reach the subclass's lookup.
            if method is None or method.class_name == "MDPredictor":
                continue
            params = list(method.params)
            if len(params) < 2:
                continue
            _walk(index, method, frozenset({params[1]}), cls, cls.qualname,
                  visited, findings)
    return findings

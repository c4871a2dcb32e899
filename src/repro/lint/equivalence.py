"""eq-*: semantic-surface equivalence of the scalar and batched engines.

The two timing engines (``core/pipeline.py``'s ``Pipeline`` and
``core/batched.py``'s ``BatchedPipeline``) must stay bit-identical; the
golden grid proves it dynamically but runs behind the ``slow`` marker.
These rules catch the common drift — "edited one engine, forgot the
other" — at lint time by comparing the engines' static surfaces (see
:mod:`repro.lint.summaries`):

* ``eq-config-read``     — a config field read by one engine only,
* ``eq-stats-write``     — a stats field written by one engine only,
* ``eq-predictor-call``  — a predictor / branch-predictor / hierarchy
  hook invoked by one engine only (the fused ``predict_train`` counts as
  the scalar ``predict`` + ``train``; the batched engine's ``prime`` /
  ``finish`` have no scalar counterpart and are ignored),
* ``eq-config-literal``  — an integer literal combined with a config
  field in one engine with no counterpart in the other (e.g. a hoisted
  ``+ 64`` drain penalty).

A genuine one-sided construct carries a suppression pragma on the line
the finding anchors to::

    # repro-lint: allow(eq-config-literal) -- provisional drain estimate,
    # refined at commit by the batched engine

Findings anchor in the engine that *has* the extra element, because that
is where the asymmetry is visible and where the pragma can explain it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .findings import Finding
from .index import ClassInfo, PackageIndex
from .summaries import EngineSummary, summarize_engine

__all__ = ["RULES", "check", "ENGINE_PAIRS"]

RULES: Dict[str, str] = {
    "eq-config-read": "config field read by only one of the paired engines",
    "eq-stats-write": "stats field written by only one of the paired engines",
    "eq-predictor-call": "collaborator hook invoked by only one of the "
                         "paired engines",
    "eq-config-literal": "config-field/literal pairing present in only one "
                         "of the paired engines",
}

#: (module suffix, class name) of the scalar and batched halves of an
#: engine pair.  Modules pair up when they share the package prefix in
#: front of the suffix, so test fixtures shaped like the real tree
#: (``pkg/core/pipeline.py`` + ``pkg/core/batched.py``) pair too.
ENGINE_PAIRS = (
    (("core.pipeline", "Pipeline"), ("core.batched", "BatchedPipeline")),
)

_KIND_LABEL = {
    "predictor": "predictor",
    "branch": "branch predictor",
    "hierarchy": "memory hierarchy",
}


def _find_engines(index: PackageIndex,
                  suffix: str, class_name: str) -> Dict[str, ClassInfo]:
    """Package prefix -> engine class, for every module matching suffix."""
    found: Dict[str, ClassInfo] = {}
    for module in sorted(index.modules):
        if module == suffix or module.endswith("." + suffix):
            cls = index.classes.get(f"{module}.{class_name}")
            if cls is not None:
                found[module[: -len(suffix)]] = cls
    return found


def _one_sided(
    here: Dict, there: Dict,
) -> List[Tuple[object, int]]:
    """Elements of ``here`` missing from ``there``, with their lines."""
    return [(key, here[key]) for key in sorted(here, key=str)
            if key not in there]


def _emit(findings: List[Finding], index: PackageIndex, rule: str,
          cls: ClassInfo, other: ClassInfo, line: int, message: str) -> None:
    mod = index.modules.get(cls.module)
    findings.append(Finding(
        rule=rule,
        module=cls.module,
        path=str(mod.path) if mod is not None else cls.module,
        line=line,
        col=0,
        message=f"{message}; the engines must stay semantically aligned "
                f"(counterpart: {other.qualname})",
        symbol=f"{cls.module}:{cls.name}",
    ))


def _compare(findings: List[Finding], index: PackageIndex,
             cls: ClassInfo, other: ClassInfo,
             summary: EngineSummary, other_summary: EngineSummary,
             label: str, other_label: str) -> None:
    """One direction: elements ``cls`` has that ``other`` lacks."""
    for fieldname, line in _one_sided(summary.config_reads,
                                      other_summary.config_reads):
        _emit(findings, index, "eq-config-read", cls, other, line,
              f"{label} engine reads config field {fieldname!r} which the "
              f"{other_label} engine never reads")
    for fieldname, line in _one_sided(summary.stats_writes,
                                      other_summary.stats_writes):
        _emit(findings, index, "eq-stats-write", cls, other, line,
              f"{label} engine writes stats field {fieldname!r} which the "
              f"{other_label} engine never writes")
    for (kind, hook), line in _one_sided(summary.hook_calls,
                                         other_summary.hook_calls):
        _emit(findings, index, "eq-predictor-call", cls, other, line,
              f"{label} engine calls {_KIND_LABEL[kind]} hook {hook!r} "
              f"which the {other_label} engine never calls")
    for (fieldname, literal), line in _one_sided(summary.literal_pairs,
                                                 other_summary.literal_pairs):
        _emit(findings, index, "eq-config-literal", cls, other, line,
              f"{label} engine combines config field {fieldname!r} with "
              f"literal {literal} in a statement; the {other_label} engine "
              f"has no such pairing")


def check(index: PackageIndex) -> List[Finding]:
    findings: List[Finding] = []
    for (scalar_loc, batched_loc) in ENGINE_PAIRS:
        scalar_engines = _find_engines(index, *scalar_loc)
        batched_engines = _find_engines(index, *batched_loc)
        for prefix in sorted(scalar_engines):
            batched: Optional[ClassInfo] = batched_engines.get(prefix)
            if batched is None:
                continue  # single-engine tree (or per-file lint): no pair
            scalar = scalar_engines[prefix]
            scalar_summary = summarize_engine(index, scalar)
            batched_summary = summarize_engine(index, batched)
            _compare(findings, index, scalar, batched,
                     scalar_summary, batched_summary, "scalar", "batched")
            _compare(findings, index, batched, scalar,
                     batched_summary, scalar_summary, "batched", "scalar")
    return findings

"""Lint engine: file discovery, checker orchestration, suppressions.

Library entry point::

    from repro.lint import lint_paths
    result = lint_paths(["src/repro"])
    assert result.ok, result.findings

Checkers are pure functions ``PackageIndex -> List[Finding]``; adding a
rule family means adding a module with a ``RULES`` dict and a ``check``
function and listing it in :data:`CHECKERS`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from . import concurrency, determinism, equivalence, oracle
from .baseline import apply_baseline, load_baseline
from .findings import Finding
from .index import PackageIndex
from .source import SourceModule, load_module

__all__ = ["ALL_FAMILIES", "ALL_RULES", "CHECKERS", "LintResult",
           "collect_files", "lint_paths", "rule_family"]

CHECKERS = (oracle, determinism, equivalence, concurrency)

#: rule name -> one-line description (includes the engine's own rules).
ALL_RULES: Dict[str, str] = {
    "parse-error": "file could not be parsed as Python",
}
for _checker in CHECKERS:
    ALL_RULES.update(_checker.RULES)


def rule_family(rule: str) -> str:
    """Rule-name prefix grouping related rules (``eq-config-read`` -> ``eq``)."""
    return rule.split("-", 1)[0]


#: Every known rule family, for ``--select`` / ``--ignore`` validation.
ALL_FAMILIES = tuple(sorted({rule_family(r) for r in ALL_RULES}))


def _resolve_families(
    select: Optional[Sequence[str]],
    ignore: Optional[Sequence[str]],
) -> Optional[frozenset]:
    """The families to run, or None for all; raises on unknown names."""
    if select is None and ignore is None:
        return None
    for name in list(select or ()) + list(ignore or ()):
        if name not in ALL_FAMILIES:
            known = ", ".join(ALL_FAMILIES)
            raise ValueError(
                f"unknown rule family {name!r} (known families: {known})")
    chosen = set(select) if select is not None else set(ALL_FAMILIES)
    chosen -= set(ignore or ())
    return frozenset(chosen)


@dataclass
class LintResult:
    """Findings plus enough context to render reports."""

    findings: List[Finding] = field(default_factory=list)
    files: int = 0

    @property
    def active(self) -> List[Finding]:
        return [f for f in self.findings if f.active]

    @property
    def ok(self) -> bool:
        return not self.active

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1

    def family_counts(self) -> Dict[str, int]:
        """Active findings per rule family (for reports and metrics)."""
        counts: Dict[str, int] = {}
        for finding in self.active:
            family = rule_family(finding.rule)
            counts[family] = counts.get(family, 0) + 1
        return counts


def collect_files(paths: Sequence[Union[str, Path]]) -> List[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    files: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(p for p in path.rglob("*.py"))
        elif path.suffix == ".py":
            files.append(path)
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")
    unique = sorted({p.resolve(): p for p in files}.items())
    return [original for _, original in unique]


def lint_paths(
    paths: Sequence[Union[str, Path]],
    baseline: Optional[Union[str, Path]] = None,
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
) -> LintResult:
    """Lint every ``.py`` file under ``paths``; see the module docstring.

    ``select`` / ``ignore`` restrict the run to (or away from) the named
    rule *families* (``oracle``, ``det``, ``eq``, ``conc``);
    checkers with no selected rules are skipped entirely, so
    CI can split the cheap per-file rules and the interprocedural pass
    into separate jobs.  ``parse-error`` is always reported.  Unknown
    family names raise :class:`ValueError`.
    """
    families = _resolve_families(select, ignore)
    files = collect_files(paths)
    modules: Dict[str, SourceModule] = {}
    findings: List[Finding] = []

    for path in files:
        try:
            mod = load_module(path)
        except SyntaxError as error:
            findings.append(Finding(
                rule="parse-error",
                module=path.stem,
                path=str(path),
                line=error.lineno or 1,
                col=(error.offset or 1) - 1,
                message=f"syntax error: {error.msg}",
            ))
            continue
        modules[mod.module] = mod

    index = PackageIndex(modules)
    for checker in CHECKERS:
        if families is not None and not any(
                rule_family(rule) in families for rule in checker.RULES):
            continue
        findings.extend(checker.check(index))
    if families is not None:
        findings = [f for f in findings
                    if rule_family(f.rule) in families
                    or f.rule == "parse-error"]

    for finding in findings:
        mod = modules.get(finding.module)
        if mod is not None and mod.is_suppressed(finding.rule, finding.line):
            finding.suppressed = True
            finding.justification = mod.justification_for(finding.line)

    findings.sort(key=Finding.sort_key)

    if baseline is not None:
        apply_baseline(findings, load_baseline(baseline))

    return LintResult(findings=findings, files=len(files))

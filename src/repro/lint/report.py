"""Text reporter for lint results."""

from __future__ import annotations

from typing import List

from .findings import Finding

__all__ = ["render_text"]


def _status_suffix(finding: Finding) -> str:
    if finding.suppressed:
        note = " [suppressed"
        if finding.justification:
            note += f": {finding.justification}"
        return note + "]"
    return ""


def render_text(findings: List[Finding], files: int,
                show_suppressed: bool = False) -> str:
    lines = []
    active = suppressed = 0
    for finding in findings:
        if finding.suppressed:
            suppressed += 1
            if not show_suppressed:
                continue
        else:
            active += 1
        lines.append(
            f"{finding.path}:{finding.line}:{finding.col + 1}: "
            f"{finding.rule}: {finding.message}{_status_suffix(finding)}"
        )
    summary = (
        f"repro-lint: {files} files checked, {active} finding"
        f"{'s' if active != 1 else ''}"
    )
    if suppressed:
        summary += f" ({suppressed} suppressed)"
    lines.append(summary)
    return "\n".join(lines) + "\n"

"""Source loading: parse trees, module naming and in-code pragmas.

repro-lint understands two comment pragmas:

``# repro-lint: allow(rule[, rule...]) -- justification``
    Suppress the named rules on this line (trailing pragma) or on the next
    line (stand-alone pragma).  The justification after ``--`` is optional
    but strongly encouraged; it is carried into reports.

``# repro-lint: allow-file(rule[, rule...]) -- justification``
    Suppress the named rules for the whole file.  Reserve this for files
    where a pattern is pervasive and uniformly safe (and say why).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set

__all__ = ["SourceModule", "load_module", "module_name_for"]

_ALLOW_RE = re.compile(
    r"#\s*repro-lint:\s*allow(?P<scope>-file)?\(\s*(?P<rules>[^)]*)\)"
    r"(?:\s*--\s*(?P<why>.*))?"
)


@dataclass
class SourceModule:
    """One parsed file plus its pragma tables."""

    path: Path
    module: str
    text: str
    tree: ast.Module
    #: line -> set of rules allowed on that line.
    allow: Dict[int, Set[str]] = field(default_factory=dict)
    #: rules allowed anywhere in the file.
    allow_file: Set[str] = field(default_factory=set)
    #: line -> justification text (best effort, for reports).
    justifications: Dict[int, str] = field(default_factory=dict)

    def is_suppressed(self, rule: str, line: int) -> bool:
        return rule in self.allow_file or rule in self.allow.get(line, ())

    def justification_for(self, line: int) -> str:
        return self.justifications.get(line, "")


def _scan_pragmas(mod: SourceModule) -> None:
    for lineno, line in enumerate(mod.text.splitlines(), start=1):
        match = _ALLOW_RE.search(line)
        if match:
            rules = {
                r.strip() for r in match.group("rules").split(",") if r.strip()
            }
            why = (match.group("why") or "").strip()
            if match.group("scope"):
                mod.allow_file |= rules
            else:
                # A pragma covers its own line and — for stand-alone
                # comment lines — the statement that follows it.
                for covered in (lineno, lineno + 1):
                    mod.allow.setdefault(covered, set()).update(rules)
                    if why:
                        mod.justifications.setdefault(covered, why)


def module_name_for(path: Path) -> str:
    """Dotted module name, derived from the ``__init__.py`` chain on disk.

    A file outside any package is named by its stem, which keeps single-file
    fixtures usable in tests.
    """
    path = path.resolve()
    parts: List[str] = [path.stem]
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.append(parent.name)
        parent = parent.parent
    if parts[0] == "__init__":
        parts = parts[1:] or [path.parent.name]
    return ".".join(reversed(parts))


def load_module(path: Path, module: Optional[str] = None) -> SourceModule:
    """Parse ``path``; raises :class:`SyntaxError` on unparsable source."""
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text, filename=str(path))
    mod = SourceModule(
        path=path, module=module or module_name_for(path), text=text, tree=tree
    )
    _scan_pragmas(mod)
    return mod

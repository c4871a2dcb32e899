"""The :class:`Finding` record every checker emits.

A finding's :attr:`~Finding.fingerprint` deliberately excludes the line and
column so a committed baseline survives unrelated edits to the same file;
two findings with the same rule, module, symbol and message are considered
the same defect wherever it moved to.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Optional

__all__ = ["Finding"]


@dataclass
class Finding:
    """One rule violation at one source location."""

    rule: str
    #: Dotted module name (stable across checkouts, unlike the path).
    module: str
    #: Path as discovered on disk (for editor-clickable output).
    path: str
    line: int
    col: int
    message: str
    #: Qualified context, e.g. ``repro.predictors.mascot:Mascot.predict``.
    symbol: Optional[str] = None
    suppressed: bool = False
    baselined: bool = False
    #: Justification text captured from the suppression pragma, if any.
    justification: str = field(default="", compare=False)

    @property
    def fingerprint(self) -> str:
        basis = "\x1f".join(
            [self.rule, self.module, self.symbol or "", self.message]
        )
        return hashlib.sha256(basis.encode("utf-8")).hexdigest()[:16]

    @property
    def family(self) -> str:
        """Rule-name prefix grouping related rules (``eq``, ``conc``...)."""
        return self.rule.split("-", 1)[0]

    @property
    def active(self) -> bool:
        """Counts toward the non-zero exit status."""
        return not (self.suppressed or self.baselined)

    def sort_key(self):
        return (self.path, self.line, self.col, self.rule, self.message)

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "family": self.family,
            "module": self.module,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "symbol": self.symbol,
            "suppressed": self.suppressed,
            "baselined": self.baselined,
            "fingerprint": self.fingerprint,
        }

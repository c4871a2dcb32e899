"""The :class:`Finding` record every checker emits."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

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
    #: Justification text captured from the suppression pragma, if any.
    justification: str = field(default="", compare=False)

    @property
    def active(self) -> bool:
        """Counts toward the non-zero exit status."""
        return not self.suppressed

    def sort_key(self):
        return (self.path, self.line, self.col, self.rule, self.message)

"""Plain-text rendering of experiment results.

The benches print the same rows/series the paper's tables and figures
report; these helpers keep the formatting consistent and make the output
easy to diff across runs (EXPERIMENTS.md is produced from them).
"""

from __future__ import annotations

import io
from typing import Iterable, List, Optional, Sequence

__all__ = ["render_table", "format_percent"]


def format_percent(value: float, digits: int = 2) -> str:
    """Render a ratio-1 as a signed percentage (``1.019 -> '+1.90%'``)."""
    return f"{100.0 * (value - 1.0):+.{digits}f}%"


def render_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: Optional[str] = None,
    float_digits: int = 3,
) -> str:
    """Fixed-width ASCII table."""
    materialised: List[List[str]] = []
    for row in rows:
        cells = []
        for value in row:
            if isinstance(value, float):
                cells.append(f"{value:.{float_digits}f}")
            else:
                cells.append(str(value))
        materialised.append(cells)
    widths = [len(h) for h in headers]
    for row in materialised:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    out = io.StringIO()
    if title:
        out.write(title + "\n")
    line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    out.write(line.rstrip() + "\n")
    out.write("  ".join("-" * w for w in widths) + "\n")
    for row in materialised:
        line = "  ".join(
            cell.ljust(widths[i]) for i, cell in enumerate(row)
        )
        out.write(line.rstrip() + "\n")
    return out.getvalue()


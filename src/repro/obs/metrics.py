"""Append-only JSONL sink for suite execution metrics.

The parallel supervisor computes per-cell wall time, outcome and cache
provenance — this writer gives those numbers a machine-readable home.
One JSON object per line, keys sorted, written
with line-granularity appends so a crashed sweep leaves a readable
prefix.

This module performs no clock or environment reads: durations are
computed by :mod:`repro.experiments.parallel` (the one module sanctioned
to read monotonic clocks) and passed in.  File writes live here and in
the other modules named by ``repro.lint``'s ``det-write`` sanction list —
the lint rule keeps new write sites from appearing elsewhere.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Union

__all__ = ["MetricsWriter", "render_metrics_summary", "summarize_metrics"]


class MetricsWriter:
    """Write metric records as JSON Lines to ``path``.

    The file is opened lazily on the first :meth:`emit` (a sweep that is
    fully cache-resolved before any metric fires still creates it — every
    resolution emits a record) and appended to, so several sweeps can
    share one metrics file.  ``records`` counts emissions for tests and
    the end-of-run summary.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self.records = 0
        self._file = None

    def emit(self, record: Dict[str, object]) -> None:
        if self._file is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._file = open(self.path, "a", encoding="utf-8")
        self._file.write(json.dumps(record, sort_keys=True) + "\n")
        self._file.flush()
        self.records += 1

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self) -> "MetricsWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"MetricsWriter({str(self.path)!r}, records={self.records})"


#: :class:`ResultCache` counter names folded into the nested ``cache``
#: summary from ``sweep`` records.
_CACHE_COUNTERS = ("hits", "misses", "stores", "quarantined")


def summarize_metrics(path: Union[str, Path]) -> Dict[str, object]:
    """Aggregate a metrics JSONL file into one dict of counts.

    Tolerates a torn final line (a sweep killed mid-append) and skips
    unknown events.  Sums per-cell records (by source and status) and
    the result-cache counters carried by ``sweep`` records.
    """
    summary: Dict[str, object] = {
        "cells": 0, "computed": 0, "cache_hits": 0,
        "failed": 0, "sweeps": 0,
        "cache": {name: 0 for name in _CACHE_COUNTERS},
    }
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError:
        return summary
    for line in text.splitlines():
        try:
            record = json.loads(line)
        except ValueError:
            continue  # torn tail of a killed sweep
        if not isinstance(record, dict):
            continue
        event = record.get("event")
        if event == "cell":
            summary["cells"] += 1
            source = record.get("source")
            if source == "cache":
                summary["cache_hits"] += 1
            else:
                summary["computed"] += 1
            if record.get("status") == "failed":
                summary["failed"] += 1
        elif event == "sweep":
            summary["sweeps"] += 1
            cache = record.get("cache")
            if isinstance(cache, dict):
                folded: Dict[str, int] = summary["cache"]
                for name in _CACHE_COUNTERS:
                    value = cache.get(name)
                    if isinstance(value, int):
                        folded[name] += value
    return summary


def render_metrics_summary(summary: Dict[str, object]) -> str:
    """One human-readable line over a :func:`summarize_metrics` dict."""
    parts = [
        f"{summary['cells']} cells"
        f" ({summary['computed']} computed, {summary['cache_hits']} cached,"
        f" {summary['failed']} failed)",
    ]
    cache = summary.get("cache") or {}
    if any(cache.values()):
        store = (f"cache {cache.get('hits', 0)} hits"
                 f"/{cache.get('misses', 0)} misses"
                 f"/{cache.get('stores', 0)} stores")
        trouble = {name: count for name, count in sorted(cache.items())
                   if count and name not in ("hits", "misses", "stores")}
        if trouble:
            store += " (" + ", ".join(f"{name}: {count}"
                                      for name, count in trouble.items()
                                      ) + ")"
        parts.append(store)
    return "; ".join(parts)

"""Append-only JSONL sink for suite execution metrics.

The parallel supervisor already computes per-cell wall time, attempts and
cache provenance for its journal — this writer gives those numbers a
machine-readable home.  One JSON object per line, keys sorted, written
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
from typing import Dict, Optional, Union

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


#: WorkerBackend counter names folded into the summary from ``sweep``
#: records (see ``repro.experiments.backends``).
_BACKEND_COUNTERS = (
    "leases_granted", "leases_expired", "heartbeats", "reconnects",
    "worker_losses", "corrupt_results",
)

#: :class:`ResultCache` counter names folded into the nested ``cache``
#: summary from ``sweep`` records.
_CACHE_COUNTERS = ("hits", "misses", "stores", "quarantined")


def summarize_metrics(path: Union[str, Path]) -> Dict[str, object]:
    """Aggregate a metrics JSONL file into one dict of counts.

    Tolerates a torn final line (a sweep killed mid-append) and unknown
    events, mirroring the journal loader's discipline.  Sums per-cell
    records (by source and status), ``requeue`` events by failure kind,
    and the distributed-backend and result-cache counters carried by
    ``sweep`` records.
    """
    summary: Dict[str, object] = {
        "cells": 0, "computed": 0, "cache_hits": 0, "from_journal": 0,
        "failed": 0, "sweeps": 0,
        "requeues": {},
        **{name: 0 for name in _BACKEND_COUNTERS},
        "cache": {name: 0 for name in _CACHE_COUNTERS},
    }
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError:
        return summary
    requeues: Dict[str, int] = summary["requeues"]
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
            elif source == "journal":
                summary["from_journal"] += 1
            else:
                summary["computed"] += 1
            if record.get("status") == "failed":
                summary["failed"] += 1
        elif event == "requeue":
            kind = str(record.get("kind"))
            requeues[kind] = requeues.get(kind, 0) + 1
        elif event == "sweep":
            summary["sweeps"] += 1
            backend = record.get("backend")
            if isinstance(backend, dict):
                for name in _BACKEND_COUNTERS:
                    value = backend.get(name)
                    if isinstance(value, int):
                        summary[name] += value
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
        f" {summary['from_journal']} resumed, {summary['failed']} failed)",
        f"leases {summary['leases_granted']} granted"
        f"/{summary['leases_expired']} expired",
        f"{summary['heartbeats']} heartbeats",
        f"{summary['reconnects']} reconnects",
    ]
    requeues = summary.get("requeues") or {}
    if requeues:
        detail = ", ".join(f"{kind}: {count}"
                           for kind, count in sorted(requeues.items()))
        parts.append(f"requeued {sum(requeues.values())} ({detail})")
    else:
        parts.append("requeued 0")
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

"""Observability: cycle accounting, predictor telemetry, suite metrics.

The simulator's whole value is *relative* metrics between predictor
schemes, and relative metrics are exactly where silent accounting bugs
hide — a warmup-contaminated numerator or a mislabeled counter skews every
figure without failing a single test.  This package makes the two streams
the aggregates are computed from attributable:

* :mod:`repro.obs.cycles` — a stall taxonomy (:data:`CYCLE_CATEGORIES`)
  and the :class:`CycleStack` the pipeline fills when constructed with
  ``accounting=True``.  The invariant that the per-category cycles sum
  exactly to ``stats.cycles`` is machine-checked (``repro profile``, CI,
  and a property test), so an attribution or measurement-window bug
  becomes a test failure instead of quiet skew.
* :mod:`repro.obs.telemetry` — :class:`TableTelemetry`, a concrete
  :class:`~repro.predictors.base.TelemetrySink` recording per-table
  predictor activity (lookups, provider hits, allocations, non-dependence
  entries, evictions, confidence transitions).  Off by default;
  attaching it is the only cost.
* :mod:`repro.obs.metrics` — :class:`MetricsWriter`, the append-only JSONL
  sink the parallel suite engine emits per-cell execution metrics to
  (wall time, cache hit/miss, failures).
* :mod:`repro.obs.profile` — ``repro profile``'s driver: one (benchmark,
  predictor) cell rendered as a cycle-stack breakdown plus a table-usage
  report.  Imported lazily by the CLI (it pulls in the experiments
  layer).
"""

from .cycles import CYCLE_CATEGORIES, CycleAccountingError, CycleStack
from .metrics import MetricsWriter, render_metrics_summary, summarize_metrics
from .telemetry import TableTelemetry

__all__ = [
    "CYCLE_CATEGORIES",
    "CycleAccountingError",
    "CycleStack",
    "MetricsWriter",
    "render_metrics_summary",
    "summarize_metrics",
    "TableTelemetry",
]

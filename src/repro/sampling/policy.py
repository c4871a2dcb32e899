"""The value-typed sampling configuration carried through the stack.

:class:`SamplingPolicy` is frozen and built only from plain value types so
it can sit on a :class:`~repro.experiments.parallel.CellSpec` (which must
stay hashable and picklable across process boundaries) and be serialised
into result-cache keys — any single-knob change yields a different cell
key, exactly like every other simulation parameter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

__all__ = ["SamplingPolicy"]


@dataclass(frozen=True)
class SamplingPolicy:
    """Knobs of one sampled run; the defaults suit suite-sized traces."""

    #: Micro-ops per region (the SimPoint "interval").  A short tail that
    #: does not fill a region is dropped, as SimPoint does.
    interval_length: int
    #: Upper bound on the number of clusters; the actual k is selected by
    #: BIC over 1..max_k (capped by the number of regions).
    max_k: int = 6
    #: Per-region warmup, in intervals: the intervals immediately
    #: *preceding* a representative region are replayed (but not
    #: measured) before it, training the branch predictor on exactly the
    #: code the full run would have just executed; regions near the
    #: start of the trace get a shorter — faithfully cold — warmup.
    #: Caches are warmed separately (``functional_warmup``), so this
    #: only needs to span the predictor transient, not the cache one.
    warmup_intervals: int = 4
    #: PCA target dimensionality for the concatenated BBV+MAV signatures
    #: (capped by the data's own rank).
    projection_dims: int = 8
    #: Seed for k-means++ seeding; selection is bit-deterministic for a
    #: given (trace, policy).
    seed: int = 0
    #: Reconstruct each region's cache state from the preceding memory
    #: accesses (Memory Timestamp Record style, see
    #: :mod:`repro.memory.warmup`) before simulating it.  The warmup
    #: replay alone cannot warm the L3 (~200k lines), so disabling this
    #: biases timing reconstructions downward on cache-resident
    #: workloads; it exists for ablations and prediction-only runs.
    functional_warmup: bool = True
    #: Two-sided confidence level of the reported IPC interval.
    confidence: float = 0.95
    #: Lower bound on the reported CI half-width, relative to the
    #: reconstructed value — the dispersion model can report arbitrarily
    #: tight intervals on near-homogeneous traces, and no sampled
    #: estimate is more trustworthy than this floor.
    min_ci_relative: float = 0.015

    def __post_init__(self) -> None:
        if self.interval_length <= 0:
            raise ValueError("interval_length must be positive")
        if self.max_k < 1:
            raise ValueError("max_k must be >= 1")
        if self.warmup_intervals < 0:
            raise ValueError("warmup_intervals must be non-negative")
        if self.projection_dims < 1:
            raise ValueError("projection_dims must be >= 1")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must be in (0, 1)")
        if self.min_ci_relative < 0.0:
            raise ValueError("min_ci_relative must be non-negative")

    # -- serialisation (cache keys, sampled-result metadata) -------------------

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable form, for cell keys and result metadata."""
        return {
            "interval_length": self.interval_length,
            "max_k": self.max_k,
            "warmup_intervals": self.warmup_intervals,
            "projection_dims": self.projection_dims,
            "seed": self.seed,
            "functional_warmup": self.functional_warmup,
            "confidence": self.confidence,
            "min_ci_relative": self.min_ci_relative,
        }

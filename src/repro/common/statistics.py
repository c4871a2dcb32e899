"""Small statistics helpers used by the experiment harness.

The paper reports geometric-mean IPC ratios (Figs. 7, 9, 11, 12, 15),
per-benchmark histograms (Figs. 2, 10, 13) and averaged rankings (Fig. 14).
These helpers keep that arithmetic in one audited place.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Mapping, Sequence

__all__ = [
    "geometric_mean",
    "arithmetic_mean",
    "normalise",
    "Histogram",
    "f1_score",
]


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean of strictly positive values.

    Raises ``ValueError`` on an empty sequence or non-positive values, which
    would silently corrupt a speedup summary.
    """
    values = list(values)
    if not values:
        raise ValueError("geometric mean of an empty sequence")
    if any(v <= 0 for v in values):
        raise ValueError("geometric mean requires strictly positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def arithmetic_mean(values: Iterable[float]) -> float:
    """Plain mean; raises on an empty sequence."""
    values = list(values)
    if not values:
        raise ValueError("mean of an empty sequence")
    return sum(values) / len(values)


def normalise(values: Mapping[str, float], baseline: Mapping[str, float]) -> Dict[str, float]:
    """Per-key ratio ``values[k] / baseline[k]``.

    Used to normalise per-benchmark IPC to the perfect-MDP predictor as every
    IPC figure in the paper does.  Keys missing from either side raise.
    """
    out: Dict[str, float] = {}
    for key, value in values.items():
        if key not in baseline:
            raise KeyError(f"baseline is missing benchmark {key!r}")
        base = baseline[key]
        if base <= 0:
            raise ValueError(f"non-positive baseline value for {key!r}: {base}")
        out[key] = value / base
    return out


def f1_score(true_positives: int, false_positives: int, false_negatives: int) -> float:
    """F1 = harmonic mean of precision and recall (paper footnote 2).

    Returns 0.0 when the entry made no positive predictions and had no
    positives to find (an unused entry scores 0, matching the tuning
    methodology in Sec. IV-F where unused entries rank last).
    """
    denominator = 2 * true_positives + false_positives + false_negatives
    if denominator == 0:
        return 0.0
    return 2 * true_positives / denominator


class Histogram:
    """A named-bucket counter with percentage views.

    Used for the SMB-opportunity mix (Fig. 2), prediction-type mix (Fig. 10)
    and per-table prediction distribution (Fig. 13).
    """

    def __init__(self, buckets: Sequence[str]):
        if not buckets:
            raise ValueError("histogram needs at least one bucket")
        if len(set(buckets)) != len(buckets):
            raise ValueError("duplicate bucket names")
        self._counts: Dict[str, int] = {name: 0 for name in buckets}

    @property
    def buckets(self) -> List[str]:
        return list(self._counts)

    def add(self, bucket: str, count: int = 1) -> None:
        if bucket not in self._counts:
            raise KeyError(f"unknown bucket {bucket!r}")
        if count < 0:
            raise ValueError("count must be non-negative")
        self._counts[bucket] += count

    def count(self, bucket: str) -> int:
        return self._counts[bucket]

    def total(self) -> int:
        return sum(self._counts.values())

    def counts(self) -> Dict[str, int]:
        return dict(self._counts)

    def percentages(self, denominator: int = 0) -> Dict[str, float]:
        """Bucket shares in percent.

        ``denominator`` overrides the total (Fig. 2 reports buckets as a
        percentage of *all executed loads*, not of dependent loads only).
        """
        denom = denominator or self.total()
        if denom == 0:
            return {name: 0.0 for name in self._counts}
        return {name: 100.0 * c / denom for name, c in self._counts.items()}

    def merge(self, other: "Histogram") -> None:
        """Accumulate another histogram with identical buckets."""
        if set(other._counts) != set(self._counts):
            raise ValueError("histograms have different buckets")
        for name, count in other._counts.items():
            self._counts[name] += count

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self._counts.items())
        return f"Histogram({inner})"

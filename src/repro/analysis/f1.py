"""Entry-usage tuning via periodic F1 scores (Sec. IV-F, Figs. 13–15).

The methodology: run MASCOT with per-entry true-positive / false-positive /
false-negative counters; every *period* (the paper uses 1 M cycles; we use a
committed-load count, the natural unit of a trace-driven model), compute
each entry's F1 score, **sort entries within each table by score**, record
the ranked vector, reset the counters, and finally average the ranked
vectors across periods (and benchmarks).  Tables whose worst-ranked entries
still score high deserve growth; tables whose tails are ~0 can shrink.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..common.statistics import f1_score
from ..predictors.mascot import Mascot

__all__ = ["F1Recorder", "RankedF1Profile", "merge_profiles",
           "suggest_table_sizes"]


@dataclass
class RankedF1Profile:
    """Averaged rank-ordered F1 scores, one vector per table (Fig. 14)."""

    #: ranked[t][r] = mean F1 of the rank-r entry (best first) of table t.
    ranked: List[List[float]]
    periods: int

    def table_mean(self, table: int) -> float:
        scores = self.ranked[table]
        return sum(scores) / len(scores) if scores else 0.0

    def occupied_fraction(self, table: int, threshold: float = 1e-9) -> float:
        """Fraction of entry slots with a non-trivial mean F1."""
        scores = self.ranked[table]
        if not scores:
            return 0.0
        return sum(1 for s in scores if s > threshold) / len(scores)

    # -- serialisation (on-disk result cache) ----------------------------------

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable form; inverse of :meth:`from_dict`.

        Floats survive a JSON round-trip exactly (repr-based encoding), so
        a cached profile is bit-identical to the freshly computed one.
        """
        return {"ranked": self.ranked, "periods": self.periods}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RankedF1Profile":
        return cls(ranked=[[float(s) for s in table]
                           for table in data["ranked"]],
                   periods=int(data["periods"]))


class F1Recorder:
    """Drives the periodic record/sort/reset cycle on a tracking MASCOT.

    Use with ``Mascot(config, track_f1=True)``; call :meth:`tick` once per
    committed load and :meth:`finish` at the end of the run.
    """

    def __init__(self, predictor: Mascot, period_loads: int = 20_000):
        if not predictor.track_f1:
            raise ValueError("predictor must be built with track_f1=True")
        if period_loads <= 0:
            raise ValueError("period must be positive")
        self.predictor = predictor
        self.period_loads = period_loads
        self._loads = 0
        self._periods = 0
        num_tables = predictor.config.num_tables
        self._sums: List[List[float]] = [
            [0.0] * predictor.config.table_entries[t] for t in range(num_tables)
        ]

    def tick(self) -> None:
        """Account one committed load; closes a period when due."""
        self._loads += 1
        if self._loads % self.period_loads == 0:
            self._record_period()

    def _record_period(self) -> None:
        config = self.predictor.config
        for t, table in enumerate(self.predictor.bank.tables):
            scores = [0.0] * config.table_entries[t]
            position = 0
            for _, _, entry in table.entries():
                scores[position] = f1_score(entry.tp, entry.fp, entry.fn)
                position += 1
            scores.sort(reverse=True)
            sums = self._sums[t]
            for r, s in enumerate(scores):
                sums[r] += s
        self._periods += 1
        self.predictor.reset_f1_scores()

    def finish(self) -> RankedF1Profile:
        """Close any partial period and return the averaged profile."""
        if self._loads % self.period_loads:
            self._record_period()
        periods = max(self._periods, 1)
        ranked = [[s / periods for s in sums] for sums in self._sums]
        return RankedF1Profile(ranked=ranked, periods=periods)


def merge_profiles(profiles: Sequence[RankedF1Profile]) -> RankedF1Profile:
    """Average ranked profiles across benchmarks (Sec. IV-F: "averaging
    across all benchmarks")."""
    if not profiles:
        raise ValueError("no profiles to merge")
    num_tables = len(profiles[0].ranked)
    merged: List[List[float]] = []
    for t in range(num_tables):
        length = max(len(p.ranked[t]) for p in profiles)
        sums = [0.0] * length
        for p in profiles:
            for r, s in enumerate(p.ranked[t]):
                sums[r] += s
        merged.append([s / len(profiles) for s in sums])
    return RankedF1Profile(ranked=merged,
                           periods=sum(p.periods for p in profiles))


def suggest_table_sizes(
    profile: RankedF1Profile,
    current_sizes: Sequence[int],
    grow_threshold: float = 0.5,
    shrink_threshold: float = 0.5,
) -> List[int]:
    """Apply the paper's two observations mechanically.

    * A table whose **worst-ranked** entry still scores above
      ``grow_threshold`` of its best is under-provisioned → double it.
    * A table whose tail half scores below ``shrink_threshold`` of its best
      is over-provisioned → halve it (quarter it if the tail 3/4 is cold).

    This reproduces the direction of the paper's manual tuning (grow table
    1, halve tables 5–7, quarter table 8); exact outcomes depend on the
    workload mix, which is why Sec. VI-D fixes the final sizes by hand.
    """
    suggestions: List[int] = []
    for t, size in enumerate(current_sizes):
        scores = profile.ranked[t]
        best = scores[0] if scores else 0.0
        if best <= 0.0:
            suggestions.append(max(size // 4, 4))
            continue
        worst = scores[min(size, len(scores)) - 1]
        half = scores[min(size // 2, len(scores) - 1)]
        quarter = scores[min(size // 4, len(scores) - 1)]
        if worst >= grow_threshold * best:
            suggestions.append(size * 2)
        elif quarter < shrink_threshold * best:
            suggestions.append(max(size // 4, 4))
        elif half < shrink_threshold * best:
            suggestions.append(max(size // 2, 4))
        else:
            suggestions.append(size)
    return suggestions

"""TAGE-MDP: the original TAGE-based memory-dependence predictor.

Sec. II-A: "TAGE-MDP, first mentioned in a paper by Perais et al., and most
thoroughly explained by Kim and Ros, modifies the TAGE branch predictor to
also predict memory dependencies.  It is a relatively simple augmentation
of TAGE, repurposing the 3-bit saturating counter to predict the store
distance, and adding a single bit u to encode usefulness.  If u is not 0,
the entry can be used for predicting a memory dependence."

This is the direct ancestor both PHAST and MASCOT improve on, included as
an additional historical baseline.  Differences from MASCOT:

* the distance field is only 3 bits (distances 1–7; longer dependencies
  cannot be expressed and default to no-prediction);
* a single usefulness bit — one false dependence silences the entry, one
  correct prediction revives it (fast to silence, but no notion of *why*);
* classic TAGE allocation (next longer table after the provider) with no
  non-dependence entries;
* MDP only, no SMB.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from .base import KIND_MDP, KIND_NO_DEP, Lookup, PredictorSizing, Truth
from .tables import BankKeys, TableBank, TableBankPredictor

__all__ = ["TageMdp", "TageMdpEntry"]


@dataclass
class TageMdpEntry:
    """Tag + 3-bit distance + single usefulness bit."""

    tag: int
    distance: int  # 1..7
    useful: bool


class TageMdp(TableBankPredictor):
    """The Perais et al. TAGE-MDP baseline (Sec. II-A)."""

    name = "tage-mdp"

    DISTANCE_BITS = 3

    def __init__(
        self,
        history_lengths: Sequence[int] = (0, 2, 4, 8, 16, 32, 64, 128),
        entries_per_table: int = 512,
        tag_bits: int = 16,
        ways: int = 4,
    ):
        self.history_lengths = tuple(history_lengths)
        self.bank = TableBank(
            history_lengths=self.history_lengths,
            table_entries=(entries_per_table,) * len(self.history_lengths),
            tag_bits=(tag_bits,) * len(self.history_lengths),
            ways=ways,
        )
        self._distance_max = (1 << self.DISTANCE_BITS) - 1

    # ------------------------------------------------------------------ lookup

    def lookup(self, seq: int, pc: int, truth: Truth) -> Lookup:
        keys, table, entry = self.bank.lookup(pc)
        # "If u is not 0, the entry can be used for predicting a memory
        # dependence" — a cleared u bit silences the entry.
        if entry is None or not entry.useful:
            return KIND_NO_DEP, 0, None, None, keys, None
        return KIND_MDP, entry.distance, None, table, keys, entry

    # ------------------------------------------------------------------ update

    def update(self, keys: BankKeys, source: Optional[int],
               entry: Optional[TageMdpEntry], kind: int, distance: int,
               store_seq: Optional[int], a_dist: int, a_seq: Optional[int],
               bypass_code: int, branches_between: int,
               store_pc: Optional[int]) -> None:
        # Distances beyond the 3-bit field cannot be represented; the
        # predictor simply cannot learn such pairs.
        representable = 0 < a_dist <= self._distance_max

        if kind != KIND_NO_DEP:
            if a_dist == distance:
                if entry is not None:
                    entry.useful = True
            else:
                if entry is not None:
                    entry.useful = False  # single-bit: one strike silences
                if representable:
                    self._allocate(keys, source, a_dist)
        elif representable:
            self._allocate(keys, source, a_dist)

    def _allocate(self, keys: BankKeys, source: Optional[int],
                  distance: int) -> None:
        """Classic TAGE allocation: next longer table, not-useful victims."""
        indices, tags = keys
        tables = self.bank.tables
        start = 0 if source is None else min(source + 1, len(tables) - 1)
        for t in range(start, len(tables)):
            ways = tables[t].ways_at(indices[t])
            for w, entry in enumerate(ways):
                if entry is None or not entry.useful:
                    ways[w] = TageMdpEntry(tag=tags[t], distance=distance,
                                           useful=True)
                    return
        # Everything useful: clear the u bits of the first candidate set so
        # a future allocation can proceed (TAGE's aging, single-bit form).
        for entry in tables[start].ways_at(indices[start]):
            if entry is not None:
                entry.useful = False

    # --------------------------------------------------------------------- misc

    @property
    def storage(self) -> Tuple[PredictorSizing, ...]:
        return (self.bank.sizing(self.name, distance=self.DISTANCE_BITS,
                                 useful=1),)

    def reset(self) -> None:
        self.bank.clear()

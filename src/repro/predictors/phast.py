"""PHAST memory-dependence predictor (Kim & Ros, HPCA 2024).

The state-of-the-art MDP baseline the paper compares against.  PHAST
organises entries into TAGE-like tables of increasing context length and
looks all tables up in parallel, predicting from the longest-history match.
Its distinguishing feature is the allocation policy: instead of TAGE's
next-longer-table-after-the-mispredicting-one rule, PHAST chooses the
allocation table from the **number of branches between the conflicting
store and the load** — the context that must be captured for the pair to be
re-identified.  Entries carry a 7-bit distance, 16-bit tag, 4-bit
usefulness counter and 2-bit LRU field (Table II: 14.5 KB).

PHAST tracks only dependencies.  A false dependence merely decrements the
mispredicting entry's usefulness — exactly the behaviour MASCOT's
non-dependence allocation replaces.  PHAST performs MDP only (no SMB).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from .base import KIND_MDP, KIND_NO_DEP, Lookup, PredictorSizing, Truth
from .tables import BankKeys, TableBank, TableBankPredictor

__all__ = ["Phast", "PhastEntry", "PHAST_HISTORY_LENGTHS"]

#: Table context lengths (branch counts).  The PHAST paper uses a geometric
#: series over 8 tables; we use the same series as MASCOT so the two
#: predictors differ only in policy, matching Table II's equal table count.
PHAST_HISTORY_LENGTHS: Tuple[int, ...] = (0, 2, 4, 8, 16, 32, 64, 128)


@dataclass
class PhastEntry:
    """One PHAST entry: tag, distance, 4-bit usefulness, 2-bit LRU."""

    tag: int
    distance: int
    usefulness: int
    lru: int = 0  # 0 = most recently used within the set


class Phast(TableBankPredictor):
    """The PHAST predictor with the Table II configuration (14.5 KB)."""

    name = "phast"

    USEFULNESS_BITS = 4
    LRU_BITS = 2
    DISTANCE_BITS = 7

    def __init__(
        self,
        history_lengths: Sequence[int] = PHAST_HISTORY_LENGTHS,
        entries_per_table: int = 512,
        tag_bits: int = 16,
        ways: int = 4,
        alloc_usefulness: int = 8,
    ):
        self.history_lengths = tuple(history_lengths)
        self.bank = TableBank(
            history_lengths=self.history_lengths,
            table_entries=(entries_per_table,) * len(self.history_lengths),
            tag_bits=(tag_bits,) * len(self.history_lengths),
            ways=ways,
        )
        self.ways = ways
        self._useful_max = (1 << self.USEFULNESS_BITS) - 1
        self._lru_max = (1 << self.LRU_BITS) - 1
        self._distance_max = (1 << self.DISTANCE_BITS) - 1
        self.alloc_usefulness = min(alloc_usefulness, self._useful_max)
        self.predictions_per_table = [0] * (len(self.history_lengths) + 1)

    # ------------------------------------------------------------------- lookup

    def lookup(self, seq: int, pc: int, truth: Truth) -> Lookup:
        keys, table, entry = self.bank.lookup(pc)
        sink = self.telemetry
        # PHAST predicts a dependence on any tag hit; the usefulness counter
        # only protects entries from eviction.  This is what makes false
        # dependencies PHAST's dominant error class (Fig. 8): a conditional
        # non-dependence can only be unlearned by slowly draining the
        # counter, not by recording the non-dependence context.
        if entry is None:
            base = self.bank.num_tables
            self.predictions_per_table[base] += 1
            if sink is not None:
                sink.lookup(base)
            return KIND_NO_DEP, 0, None, None, keys, None
        self.predictions_per_table[table] += 1
        if sink is not None:
            sink.lookup(table)
        # Touch LRU: the used way becomes most recent, the others age.
        lru_max = self._lru_max
        for other in self.bank[table].ways_at(keys[0][table]):
            if other is None:
                continue
            if other is entry:
                other.lru = 0
            elif other.lru < lru_max:
                other.lru += 1
        return KIND_MDP, entry.distance, None, table, keys, entry

    # ------------------------------------------------------------------- update

    def update(self, keys: BankKeys, source: Optional[int],
               entry: Optional[PhastEntry], kind: int, distance: int,
               store_seq: Optional[int], a_dist: int, a_seq: Optional[int],
               bypass_code: int, branches_between: int,
               store_pc: Optional[int]) -> None:
        sink = self.telemetry
        dmax = self._distance_max
        actual_distance = a_dist if a_dist < dmax else dmax

        if kind != KIND_NO_DEP and a_dist > 0:
            if distance == actual_distance:
                if entry is not None:
                    if entry.usefulness < self._useful_max:
                        entry.usefulness += 1
                    if sink is not None:
                        sink.confidence(source, "up")
            else:
                if entry is not None:
                    if entry.usefulness > 0:
                        entry.usefulness -= 1
                    if sink is not None:
                        sink.confidence(source, "down")
                self._allocate(keys, branches_between, actual_distance)
        elif kind != KIND_NO_DEP:
            # False dependence: PHAST only decays (no non-dependence entry).
            if entry is not None:
                if entry.usefulness > 0:
                    entry.usefulness -= 1
                if sink is not None:
                    sink.confidence(source, "down")
        elif a_dist > 0:
            # Missed dependence: learn the pair in the branch-distance table.
            self._allocate(keys, branches_between, actual_distance)
        # Correct non-dependence: nothing to reinforce.

    def _allocation_table(self, branches_between: int) -> int:
        """PHAST's signature policy: pick the table whose context length
        just covers the branch count between the store and the load."""
        for t, length in enumerate(self.history_lengths):
            if length >= branches_between:
                return t
        return len(self.history_lengths) - 1

    def _allocate(self, keys: BankKeys, branches_between: int,
                  distance: int) -> None:
        indices, tags = keys
        table = self._allocation_table(branches_between)
        ways = self.bank[table].ways_at(indices[table])
        sink = self.telemetry

        # Victim selection: empty way, else LRU among drained (usefulness 0)
        # entries; if every way is still useful, age the LRU entry instead
        # of allocating (PHAST protects its established context entries).
        victim: Optional[int] = None
        for w, entry in enumerate(ways):
            if entry is None:
                victim = w
                break
        if victim is None:
            drained = [
                (entry.lru, w) for w, entry in enumerate(ways)
                if entry.usefulness == 0
            ]
            if drained:
                victim = max(drained)[1]
        if victim is None:
            oldest = ways[max((entry.lru, w)
                              for w, entry in enumerate(ways))[1]]
            oldest.usefulness = max(0, oldest.usefulness - 1)
            if sink is not None:
                sink.event("allocation_deferred")
                sink.confidence(table, "down")
            return
        if sink is not None:
            if ways[victim] is not None:
                sink.eviction(table)
            sink.allocation(table, distance)
        ways[victim] = PhastEntry(tag=tags[table], distance=distance,
                                  usefulness=self.alloc_usefulness)

    # --------------------------------------------------------------------- misc

    @property
    def storage(self) -> Tuple[PredictorSizing, ...]:
        return (self.bank.sizing(self.name, counter=self.USEFULNESS_BITS,
                                 distance=self.DISTANCE_BITS,
                                 lru=self.LRU_BITS),)

    def reset(self) -> None:
        self.bank.clear()
        self.predictions_per_table = [0] * (len(self.history_lengths) + 1)

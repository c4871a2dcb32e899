"""NoSQ-style combined MDP+SMB predictor (Sha, Martin & Roth, MICRO 2006).

The SMB baseline of Figs. 7/8 (Table II: 19 KB).  Following Sec. V's
description of the evaluated variant:

* two 4-way tables of 2K entries each — a **path-dependent** table indexed
  GShare-style (PC XOR folded global history) and a **path-independent**
  table indexed by PC alone;
* entries hold a 22-bit tag, 7-bit confidence counter, 7-bit store distance
  and 2-bit LRU;
* **high-confidence** hits in the path-dependent table perform SMB;
  low-confidence path-dependent hits only mark the load to wait for the
  predicted store (MDP); path-independent predictions are never allowed to
  perform SMB; on a complete miss the load executes speculatively (NO_DEP).

Confidence builds by +1 on a correct distance and resets to 0 on a wrong
one, making SMB appropriately hard to earn; the predictor has no notion of
negative (non-dependence) context, which is why its false-dependence rate
in Fig. 8 dwarfs MASCOT's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from ..common.bitops import mask
from ..common.foldplan import (
    BranchStream,
    FoldPlan,
    check_consumed,
    primed_rows,
)
from ..common.history import GlobalHistory
from ..trace.columns import BYPASS_BY_CODE
from ..trace.uop import OFFSET_BYPASSABLE
from .base import (KIND_MDP, KIND_NO_DEP, KIND_SMB, Lookup, MDPredictor,
                   PredictorSizing, Truth)

__all__ = ["NoSQ", "NoSQEntry"]

#: (path-dependent index, tag, path-independent index, tag) of one load.
NoSQKeys = Tuple[int, int, int, int]


@dataclass
class NoSQEntry:
    """One NoSQ table entry."""

    tag: int
    distance: int
    confidence: int
    lru: int = 0


class NoSQ(MDPredictor):
    """The NoSQ-derived MDP+SMB baseline."""

    name = "nosq"

    TAG_BITS = 22
    CONFIDENCE_BITS = 7
    DISTANCE_BITS = 7
    LRU_BITS = 2

    def __init__(
        self,
        entries_per_table: int = 2048,
        ways: int = 4,
        history_bits: int = 8,
        smb_confidence: int = 16,
    ):
        if entries_per_table % ways:
            raise ValueError("entries must divide into ways")
        self.entries_per_table = entries_per_table
        self.ways = ways
        self.num_sets = entries_per_table // ways
        self.index_bits = max((self.num_sets - 1).bit_length(), 1)
        if (1 << self.index_bits) != self.num_sets:
            raise ValueError("sets must be a power of two")
        self.history_bits = history_bits
        self.smb_confidence = smb_confidence
        self._confidence_max = (1 << self.CONFIDENCE_BITS) - 1
        self._distance_max = (1 << self.DISTANCE_BITS) - 1
        self._lru_max = (1 << self.LRU_BITS) - 1

        self._ghist = GlobalHistory(max_bits=max(history_bits, 1) + 8)
        self._hist_fold = self._ghist.attach_fold(history_bits, self.index_bits)
        self._tag_fold = self._ghist.attach_fold(history_bits, self.TAG_BITS)

        # Table 0: path-dependent; table 1: path-independent.
        self._tables: List[List[List[Optional[NoSQEntry]]]] = [
            [[None] * ways for _ in range(self.num_sets)] for _ in range(2)
        ]
        self._offset_bypassable = tuple(bc in OFFSET_BYPASSABLE
                                        for bc in BYPASS_BY_CODE)
        # Primed run state (see prime/finish); None on the reference path.
        self._rows: Optional[Iterator[NoSQKeys]] = None
        self._plan: Optional[FoldPlan] = None
        self._primed = 0

    # ------------------------------------------------------------------ indexing

    def _keys(self, pc: int) -> NoSQKeys:
        """Reference keys under the current history: (index, tag) of the
        path-dependent table, then of the path-independent table."""
        pc_part = pc >> 1
        dep_index = (pc_part ^ self._hist_fold.value) & mask(self.index_bits)
        dep_tag = (pc_part ^ self._tag_fold.value) & mask(self.TAG_BITS)
        ind_index = pc_part & mask(self.index_bits)
        ind_tag = (pc_part >> self.index_bits) & mask(self.TAG_BITS)
        return dep_index, dep_tag, ind_index, ind_tag

    def prime(self, stream: BranchStream, load_pc: np.ndarray,
              cond_before: np.ndarray, ind_before: np.ndarray) -> bool:
        """Precompute every load's keys of one run (see
        :meth:`MDPredictor.prime`); declines if the fold check fails."""
        plan = FoldPlan.for_history(self._ghist, stream.mixed()[0])
        if plan is None:
            return False
        k_push = cond_before + 5 * ind_before
        pcv = load_pc >> 1
        imask = mask(self.index_bits)
        tmask = mask(self.TAG_BITS)
        vi = plan.column(self.history_bits, self.index_bits)[k_push]
        vt = plan.column(self.history_bits, self.TAG_BITS)[k_push]
        self._plan = plan
        self._primed = int(load_pc.shape[0])
        self._rows = primed_rows(
            ((pcv ^ vi) & imask).astype(np.int32),
            ((pcv ^ vt) & tmask).astype(np.int32),
            (pcv & imask).astype(np.int32),
            ((pcv >> self.index_bits) & tmask).astype(np.int32),
        )
        return True

    def finish(self) -> None:
        """End a primed run (see :meth:`MDPredictor.finish`); raises
        ``RuntimeError`` if any primed row went unused."""
        if self._plan is not None:
            self._plan.write_back()
            rows, primed = self._rows, self._primed
            self._plan = None
            self._rows = None
            self._primed = 0
            check_consumed(self.name, rows, primed)

    # -------------------------------------------------------------------- lookup

    def lookup(self, seq: int, pc: int, truth: Truth) -> Lookup:
        rows = self._rows
        keys = next(rows) if rows is not None else self._keys(pc)
        dep_entry, ind_entry = entries = self._reacquire(keys, None)
        sink = self.telemetry

        if dep_entry is not None:
            table, used = 0, dep_entry
            kind = (KIND_SMB if dep_entry.confidence >= self.smb_confidence
                    else KIND_MDP)
        elif ind_entry is not None:
            # Path-independent predictions never perform SMB (Sec. V).
            table, used, kind = 1, ind_entry, KIND_MDP
        else:
            if sink is not None:
                sink.lookup(2)
            return KIND_NO_DEP, 0, None, None, keys, entries
        # LRU touch: the used way becomes most recent, the others age.
        for entry in self._tables[table][keys[2 * table]]:
            if entry is None:
                continue
            if entry is used:
                entry.lru = 0
            elif entry.lru < self._lru_max:
                entry.lru += 1
        if sink is not None:
            sink.lookup(table)
        return kind, used.distance, None, table, keys, entries

    def _reacquire(self, keys: NoSQKeys, source: Optional[int]
                   ) -> Tuple[Optional[NoSQEntry], Optional[NoSQEntry]]:
        """The entries tagged by ``keys`` in the path-dependent and the
        path-independent table (None where absent)."""
        dep_index, dep_tag, ind_index, ind_tag = keys
        dep_entry = ind_entry = None
        for entry in self._tables[0][dep_index]:
            if entry is not None and entry.tag == dep_tag:
                dep_entry = entry
                break
        for entry in self._tables[1][ind_index]:
            if entry is not None and entry.tag == ind_tag:
                ind_entry = entry
                break
        return dep_entry, ind_entry

    # -------------------------------------------------------------------- update

    def update(self, keys: NoSQKeys, source: Optional[int],
               entry: Tuple[Optional[NoSQEntry], Optional[NoSQEntry]],
               kind: int, distance: int, store_seq: Optional[int],
               a_dist: int, a_seq: Optional[int], bypass_code: int,
               branches_between: int, store_pc: Optional[int]) -> None:
        sink = self.telemetry
        if a_dist > 0:
            dmax = self._distance_max
            distance = a_dist if a_dist < dmax else dmax
            # NoSQ's datapath shifts/truncates, so OFFSET-class
            # dependencies are bypassable too (Sec. II-B.2: "even covering
            # cases such as partial-word bypassing").
            bypassable = self._offset_bypassable[bypass_code]
            for table, current in enumerate(entry):
                if current is not None and current.distance == distance:
                    # Bypass confidence only accumulates on instances the
                    # hardware could actually have bypassed.
                    if bypassable or table == 1:
                        if current.confidence < self._confidence_max:
                            current.confidence += 1
                        if sink is not None:
                            sink.confidence(table, "up")
                    else:
                        current.confidence = 0
                        if sink is not None:
                            sink.confidence(table, "bypass_reset")
                else:
                    self._install(table, keys[2 * table],
                                  keys[2 * table + 1], distance)
        else:
            # False dependence: reset confidence (no non-dependence memory).
            for table, current in enumerate(entry):
                if current is not None:
                    current.confidence = 0
                    if sink is not None:
                        sink.confidence(table, "reset")

    def _install(self, table: int, index: int, tag: int,
                 distance: int) -> None:
        ways = self._tables[table][index]
        sink = self.telemetry
        # Retrain in place when the tag is already resident (wrong-distance
        # case) so a stale duplicate cannot shadow the update.
        for entry in ways:
            if entry is not None and entry.tag == tag:
                entry.distance = distance
                entry.confidence = 1
                if sink is not None:
                    sink.confidence(table, "reset")
                return
        victim: Optional[int] = None
        for w, entry in enumerate(ways):
            if entry is None:
                victim = w
                break
        if victim is None:
            victim = max(
                (entry.lru, w) for w, entry in enumerate(ways)
            )[1]
        if sink is not None:
            if ways[victim] is not None:
                sink.eviction(table)
            sink.allocation(table, distance)
        ways[victim] = NoSQEntry(tag=tag, distance=distance, confidence=1)

    # -------------------------------------------------------------------- events

    def on_branch(self, pc: int, taken: bool) -> None:
        if self._plan is None:
            self._ghist.push_conditional(taken)

    def on_indirect(self, pc: int, target: int) -> None:
        if self._plan is None:
            self._ghist.push_indirect(target)

    # ---------------------------------------------------------------------- misc

    @property
    def storage(self) -> Tuple[PredictorSizing, ...]:
        return (PredictorSizing(
            name=self.name,
            tables=f"{len(self._tables)} ({self.ways} way)",
            total_entries=len(self._tables) * self.entries_per_table,
            fields_per_entry={"tag": self.TAG_BITS,
                              "counter": self.CONFIDENCE_BITS,
                              "distance": self.DISTANCE_BITS,
                              "lru": self.LRU_BITS},
        ),)

    @property
    def supports_smb(self) -> bool:
        return True

    @property
    def bypassable_classes(self) -> frozenset:
        return OFFSET_BYPASSABLE

    def reset(self) -> None:
        self._tables = [
            [[None] * self.ways for _ in range(self.num_sets)]
            for _ in range(2)
        ]
        self._ghist.reset()

"""IDist + Store Sets: the Perais et al. SMB configuration (Sec. II-B.2).

"Their IDist predictor is a TAGE-based predictor, which uses 2, 5, 11, 27
and 64 bits of global branch history combined with 16 bits of path history
and the load PC.  To minimise squashes, IDist only makes predictions when
it is highly confident.  Because of this, it is not suitable for
memory-dependence prediction, and thus the authors implement it in
conjunction with a 4 KiB store-sets predictor for that purpose."

This module implements exactly that split design:

* **IDist** — a TAGE-like distance predictor over the paper's history
  series (2, 5, 11, 27, 64) whose entries carry a 3-bit confidence counter;
  it only emits an SMB prediction when fully confident (and the tracked
  geometry is bypassable), and it emits *nothing* otherwise.
* **Store Sets** — a smaller (4 KiB-class) store-sets predictor supplying
  the MDP decision whenever IDist stays quiet.

The combination demonstrates the paper's motivating claim: split designs
pay twice in storage and still leave opportunities on the table compared
with a single structure accurate in both directions (MASCOT).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from ..trace.columns import BYPASS_BY_CODE
from ..trace.uop import SAME_ADDRESS_BYPASSABLE, MicroOp
from .base import KIND_MDP, KIND_NO_DEP, KIND_SMB, Lookup
from .store_sets import StoreSets
from .tables import TableBank, TableBankPredictor

__all__ = ["IDistStoreSets", "IDistEntry"]

#: IDist's published history lengths (bits of global branch history).
IDIST_HISTORY_LENGTHS: Tuple[int, ...] = (2, 5, 11, 27, 64)


@dataclass
class IDistEntry:
    """Tag + distance + 3-bit confidence + bypassable flag."""

    tag: int
    distance: int
    confidence: int  # 3-bit, saturates at 7
    bypassable: bool


class IDistStoreSets(TableBankPredictor):
    """IDist (SMB) layered over a small Store Sets predictor (MDP)."""

    name = "idist+store-sets"

    CONFIDENCE_BITS = 3
    DISTANCE_BITS = 7

    def __init__(
        self,
        history_lengths: Sequence[int] = IDIST_HISTORY_LENGTHS,
        entries_per_table: int = 512,
        tag_bits: int = 14,
        ways: int = 4,
        ssit_entries: int = 2048,
        lfst_entries: int = 1024,
    ):
        self.history_lengths = tuple(history_lengths)
        self.tag_bits = tag_bits
        self.bank = TableBank(
            history_lengths=self.history_lengths,
            table_entries=(entries_per_table,) * len(self.history_lengths),
            tag_bits=(tag_bits,) * len(self.history_lengths),
            ways=ways,
            path_bits=16,
        )
        # The companion MDP predictor ("a 4 KiB store-sets predictor").
        # Its footprint-pressure emulation (see StoreSets) is kept milder
        # than the full-size predictor's: at the default 192 the small SSIT
        # would collapse to ~10 effective entries and serialise everything,
        # which would caricature rather than model the split design.
        self.store_sets = StoreSets(
            ssit_entries=ssit_entries, lfst_entries=lfst_entries,
            footprint_scale=32,
        )
        self._confidence_max = (1 << self.CONFIDENCE_BITS) - 1
        self._distance_max = (1 << self.DISTANCE_BITS) - 1
        # IDist tracks same-address (DIRECT / NO_OFFSET) geometry only.
        self._same_address = tuple(bc in SAME_ADDRESS_BYPASSABLE
                                   for bc in BYPASS_BY_CODE)

    # ------------------------------------------------------------------- lookup

    def lookup(self, uop: MicroOp) -> Lookup:
        """Keys are the bank's plus Store Sets' own lookup result; the
        entry is the longest-history match as ``(table, entry)``."""
        (indices, tags), table, entry = self.bank.lookup(uop.pc)
        ss = self.store_sets.lookup(uop)
        keys = (indices, tags, ss)

        # IDist speaks only at full confidence and only for bypassable
        # geometry; everything else defers to Store Sets.
        if (
            entry is not None
            and entry.bypassable
            and entry.confidence >= self._confidence_max
        ):
            return KIND_SMB, entry.distance, None, table, keys, (table, entry)
        if ss[0] != KIND_NO_DEP:
            return KIND_MDP, 0, ss[2], None, keys, (table, entry)
        return KIND_NO_DEP, 0, None, None, keys, (table, entry)

    def _reacquire(self, keys, source: Optional[int]):
        """Commit-time re-lookup of the longest matching IDist entry."""
        return self.bank.lookup(None, (keys[0], keys[1]))[1:]

    # ------------------------------------------------------------------- update

    def update(self, keys, source: Optional[int], entry, kind: int,
               distance: int, store_seq: Optional[int], a_dist: int,
               a_seq: Optional[int], bypass_code: int, branches_between: int,
               store_pc: Optional[int]) -> None:
        indices, tags, ss = keys
        # Train the Store Sets side with its own prediction (it must see
        # violations it would itself have caused).
        ss_kind, ss_dist, ss_seq, ss_source, ss_keys, ss_entry = ss
        self.store_sets.update(ss_keys, ss_source, ss_entry, ss_kind,
                               ss_dist, ss_seq, a_dist, a_seq, bypass_code,
                               branches_between, store_pc)

        table, entry = entry
        if a_dist > 0:
            distance = min(a_dist, self._distance_max)
            bypassable = self._same_address[bypass_code]
            if entry is not None and entry.distance == distance:
                if bypassable == entry.bypassable:
                    entry.confidence = min(self._confidence_max,
                                           entry.confidence + 1)
                else:
                    entry.bypassable = bypassable
                    entry.confidence = 0
            else:
                if entry is not None:
                    entry.confidence = 0
                self._allocate(indices, tags, table, distance, bypassable)
        elif entry is not None:
            # Dependence did not recur: restart confidence building.
            entry.confidence = 0

    def _allocate(self, indices, tags, source: Optional[int],
                  distance: int, bypassable: bool) -> None:
        tables = self.bank.tables
        start = 0 if source is None else min(source + 1, len(tables) - 1)
        # Only the first candidate set is tried; without a free way it is
        # aged instead.
        ways = tables[start].ways_at(indices[start])
        for w, entry in enumerate(ways):
            if entry is None or entry.confidence == 0:
                ways[w] = IDistEntry(tag=tags[start], distance=distance,
                                     confidence=1, bypassable=bypassable)
                return
        for entry in ways:
            if entry is not None:
                entry.confidence = max(0, entry.confidence - 1)

    def on_store(self, uop: MicroOp) -> Optional[int]:
        return self.store_sets.on_store(uop)

    # --------------------------------------------------------------------- misc

    @property
    def storage_bits(self) -> int:
        entry_bits = (self.tag_bits + self.DISTANCE_BITS
                      + self.CONFIDENCE_BITS + 1)
        idist = entry_bits * sum(t.num_entries for t in self.bank.tables)
        return idist + self.store_sets.storage_bits

    @property
    def supports_smb(self) -> bool:
        return True

    def reset(self) -> None:
        self.bank.clear()
        self.store_sets.reset()

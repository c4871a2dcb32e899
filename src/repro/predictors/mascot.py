"""MASCOT: Memory-dependence And Short-Circuit Optimising TAGE (Sec. IV).

The paper's primary contribution.  A TAGE-like array of 4-way tagged tables
with increasing global-history lengths, where each entry predicts either

* a **dependence** on the store at a given store-queue distance (the 7-bit
  distance field, 1–127), optionally safe to **bypass** (SMB) when both the
  3-bit usefulness counter and the 2-bit bypass counter are saturated; or
* a **non-dependence** (distance field = 0), MASCOT's key innovation: when a
  false dependence is discovered at commit, a non-dependence entry is
  allocated in the next longer-history table so the surrounding branch
  context — already in the history by then — disambiguates the next
  occurrence (Fig. 3).

Update rules (Sec. IV-B):
  correct MDP prediction → usefulness++;
  correct bypass → bypass++;
  incorrect memory-dependence prediction → usefulness--;
  incorrect bypass prediction → bypass := 0.

Allocation rules (Sec. IV-C): dependence entries start with usefulness 6,
non-dependence entries with usefulness 2; allocation targets the table after
the mispredicting one and walks upward ("try-again") when every way of the
target set is protected (usefulness > 0); a failed first-target allocation
decrements all four ways of that set.  Only entries with usefulness 0 may be
evicted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..trace.columns import BYPASS_BY_CODE
from ..trace.uop import OFFSET_BYPASSABLE, SAME_ADDRESS_BYPASSABLE, BypassClass
from .base import (KIND_MDP, KIND_NO_DEP, KIND_SMB, Lookup,
                   PredictorSizing, Truth)
from .configs import MASCOT_DEFAULT, MascotConfig
from .tables import BankKeys, TableBank, TableBankPredictor

__all__ = ["Mascot", "MascotEntry"]


@dataclass
class MascotEntry:
    """One MASCOT entry (Fig. 6): tag, distance, usefulness, bypass.

    ``distance == 0`` encodes a non-dependence.  Counters are stored as
    plain ints (bounds enforced by the owning predictor's config) — entries
    are created and updated millions of times per run; the saturating
    bounds logic lives in :meth:`Mascot._bump`.
    """

    tag: int
    distance: int
    usefulness: int
    bypass: int

    # Optional F1 bookkeeping (Sec. IV-F tuning); see Mascot(track_f1=True).
    tp: int = 0
    fp: int = 0
    fn: int = 0

    @property
    def is_nondependence(self) -> bool:
        return self.distance == 0


class Mascot(TableBankPredictor):
    """The MASCOT predictor (default configuration: Sec. IV-B, 14 KiB)."""

    def __init__(self, config: MascotConfig = MASCOT_DEFAULT,
                 track_f1: bool = False):
        self.config = config
        self.name = config.name
        self.bank = TableBank(
            history_lengths=config.history_lengths,
            table_entries=config.table_entries,
            tag_bits=config.tag_bits,
            ways=config.ways,
            path_bits=config.path_bits,
        )
        self.track_f1 = track_f1
        self._useful_max = (1 << config.usefulness_bits) - 1
        self._bypass_max = (1 << config.bypass_bits) - 1
        self._distance_max = (1 << config.distance_bits) - 1
        # Whether the microarchitecture could bypass each overlap class
        # (indexed by bypass code).  MASCOT's default hardware assumption
        # (Sec. IV-E) is same-address bypassing: DIRECT and NO_OFFSET; the
        # ``offset_bypass`` extension adds a shift field enabling OFFSET-
        # class bypassing too.
        supported = {BypassClass.DIRECT, BypassClass.NO_OFFSET}
        if config.offset_bypass:
            supported.add(BypassClass.OFFSET)
        self._supported_bypass = tuple(bc in supported
                                       for bc in BYPASS_BY_CODE)
        self._loads_seen = 0
        # Fig. 13 statistics: predictions served per table (index == table
        # number; the extra last slot counts base-predictor defaults).
        self.predictions_per_table = [0] * (config.num_tables + 1)
        # Aggregate event counters (useful in tests and reports).
        self.allocations_dep = 0
        self.allocations_nondep = 0
        self.allocation_failures = 0

    # ---------------------------------------------------------------- lookup

    def lookup(self, seq: int, pc: int, truth: Truth) -> Lookup:
        keys, table, entry = self.bank.lookup(pc)
        sink = self.telemetry

        if entry is None:
            # Base prediction: no dependence (Sec. IV-B).
            base = self.bank.num_tables
            self.predictions_per_table[base] += 1
            if sink is not None:
                sink.lookup(base)
            return KIND_NO_DEP, 0, None, None, keys, None

        self.predictions_per_table[table] += 1
        if sink is not None:
            sink.lookup(table)
        if entry.distance == 0:
            return KIND_NO_DEP, 0, None, table, keys, entry

        # "Whenever the distance field is not zero, a memory dependence
        # prediction is made regardless of the value of the usefulness
        # field, whereas SMB is only predicted if both the usefulness and
        # bypassing counters are saturated."
        if (self.config.smb_enabled
                and entry.usefulness == self._useful_max
                and entry.bypass == self._bypass_max):
            return KIND_SMB, entry.distance, None, table, keys, entry
        return KIND_MDP, entry.distance, None, table, keys, entry

    # ---------------------------------------------------------------- update

    def update(self, keys: BankKeys, source: Optional[int],
               entry: Optional[MascotEntry], kind: int, distance: int,
               store_seq: Optional[int], a_dist: int, a_seq: Optional[int],
               bypass_code: int, branches_between: int,
               store_pc: Optional[int]) -> None:
        sink = self.telemetry
        umax = self._useful_max
        start = 0 if source is None else source + 1
        dmax = self._distance_max
        actual_distance = a_dist if a_dist < dmax else dmax

        if kind == KIND_NO_DEP and a_dist <= 0:
            # Correct non-dependence.  Strengthen an explicit non-dependence
            # entry; the base predictor has no state to reinforce.
            if entry is not None and entry.distance == 0:
                if entry.usefulness < umax:
                    entry.usefulness += 1
                if sink is not None:
                    sink.confidence(source, "up")
                if self.track_f1:
                    entry.tp += 1  # for ND entries, "positive" = non-dep
        elif kind == KIND_NO_DEP:
            # Missed dependence (false negative; MDP squash).  Allocate the
            # correct dependence with more context (base mispredict → N0).
            if entry is not None:
                if entry.usefulness > 0:
                    entry.usefulness -= 1
                if sink is not None:
                    sink.confidence(source, "down")
                if self.track_f1:
                    entry.fn += 1
            self._allocate(keys, start, actual_distance,
                           self._supported_bypass[bypass_code])
        elif a_dist <= 0:
            # False dependence (false positive).  For MDP this only cost
            # issue delay; for SMB the pipeline squashed.  Either way, the
            # context was inadequate: decay and allocate a NON-DEPENDENCE
            # entry in the next table — the core MASCOT mechanism.
            if entry is not None:
                self._weaken(entry, source, kind)
                if self.track_f1:
                    entry.fp += 1
            if self.config.allocate_nondependencies:
                self._allocate(keys, start, 0, False)
        elif distance == actual_distance:
            # Both predicted and actual dependence, on the same store.
            if entry is not None:
                if entry.usefulness < umax:
                    entry.usefulness += 1
                if sink is not None:
                    sink.confidence(source, "up")
                if self._supported_bypass[bypass_code]:
                    if entry.bypass < self._bypass_max:
                        entry.bypass += 1
                    if sink is not None:
                        sink.confidence(source, "bypass_up")
                else:
                    # An SMB prediction here was wrong (partial overlap
                    # or unsupported geometry): reset; and even without
                    # an SMB prediction, a non-bypassable instance
                    # restarts confidence building.
                    entry.bypass = 0
                    if sink is not None:
                        sink.confidence(source, "bypass_reset")
                if self.track_f1:
                    entry.tp += 1
        else:
            # Conflict with a *different* store: squash; learn the correct
            # distance with more context.
            if entry is not None:
                self._weaken(entry, source, kind)
                if self.track_f1:
                    entry.fp += 1
            self._allocate(keys, start, actual_distance,
                           self._supported_bypass[bypass_code])

        self._loads_seen += 1
        if (
            self.config.decay_period
            and self._loads_seen % self.config.decay_period == 0
        ):
            self._decay_all()

    def _weaken(self, entry: MascotEntry, source: int, kind: int) -> None:
        """A wrong dependence prediction: usefulness--, and a wrong SMB
        prediction also resets the bypass counter."""
        sink = self.telemetry
        if entry.usefulness > 0:
            entry.usefulness -= 1
        if kind == KIND_SMB:
            entry.bypass = 0
        if sink is not None:
            sink.confidence(source, "down")
            if kind == KIND_SMB:
                sink.confidence(source, "bypass_reset")

    # ------------------------------------------------------------- allocation

    def _allocate(self, keys: BankKeys, start: int, distance: int,
                  bypassable: bool) -> Optional[int]:
        """Try-again allocation (Sec. IV-C).

        Walks tables ``start, start+1, ...`` looking for a way with
        usefulness 0 (empty ways qualify).  If the *first* target set has no
        victim, all of its ways are decremented — "regardless of whether an
        allocation was made to a bigger table or not" — keeping stale
        entries short-lived.  Returns the table allocated into, or None.
        """
        indices, tags = keys
        tables = self.bank.tables
        start = min(start, len(tables) - 1)
        sink = self.telemetry

        for t in range(start, len(tables)):
            ways = tables[t].ways_at(indices[t])
            for victim, old in enumerate(ways):
                if old is None or old.usefulness == 0:
                    break
            else:
                if t == start:
                    # First-target failure: age the whole set.
                    self.allocation_failures += 1
                    if sink is not None:
                        sink.event("allocation_failure")
                    for old in ways:
                        if old is not None and old.usefulness > 0:
                            old.usefulness -= 1
                continue
            if sink is not None:
                if old is not None:
                    sink.eviction(t)
                sink.allocation(t, distance)
            if distance == 0:
                usefulness = self.config.alloc_usefulness_nondep
                bypass = 0
                self.allocations_nondep += 1
            else:
                usefulness = self.config.alloc_usefulness_dep
                # "The bypassing counter is initially set to 1 when a new
                # conflict is allocated, provided it is a potential
                # bypassing scenario; otherwise... 0." (Sec. IV-E)
                bypass = 1 if bypassable else 0
                self.allocations_dep += 1
            ways[victim] = MascotEntry(tag=tags[t], distance=distance,
                                       usefulness=usefulness, bypass=bypass)
            return t
        return None

    def _decay_all(self) -> None:
        """Optional periodic usefulness decay (disabled by default)."""
        for table in self.bank.tables:
            for _, _, entry in table.entries():
                entry.usefulness = max(0, entry.usefulness - 1)

    # -------------------------------------------------------------------- misc

    @property
    def storage(self) -> Tuple[PredictorSizing, ...]:
        config = self.config
        return (self.bank.sizing(self.name,
                                 counter=config.usefulness_bits,
                                 distance=config.distance_bits,
                                 bypass=config.bypass_bits),)

    @property
    def supports_smb(self) -> bool:
        return self.config.smb_enabled

    @property
    def bypassable_classes(self) -> frozenset:
        if self.config.offset_bypass:
            return OFFSET_BYPASSABLE
        return SAME_ADDRESS_BYPASSABLE

    def reset(self) -> None:
        self.bank.clear()
        self._loads_seen = 0
        self.predictions_per_table = [0] * (self.config.num_tables + 1)
        self.allocations_dep = 0
        self.allocations_nondep = 0
        self.allocation_failures = 0

    def reset_f1_scores(self) -> None:
        """Zero all per-entry F1 counters (start of a new tuning period)."""
        for table in self.bank.tables:
            for _, _, entry in table.entries():
                entry.tp = entry.fp = entry.fn = 0

    def __repr__(self) -> str:
        return (
            f"Mascot(name={self.name!r}, tables={self.config.num_tables}, "
            f"size={self.storage_kib:.1f}KiB)"
        )

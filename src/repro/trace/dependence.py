"""Ground-truth memory-dependence tracking.

The generator runs every dynamic store through a :class:`DependenceTracker`;
each dynamic load then queries the tracker for the youngest older store whose
bytes overlap the load's.  The tracker returns the paper's two key
annotations:

* the **store distance** — how many dynamic stores back the conflicting
  store sits (1 = the immediately preceding store), the quantity MASCOT's
  7-bit distance field predicts; and
* the **bypass class** — Fig. 1's classification of whether the store can
  fully feed the load (SMB opportunity) or only partially (MDP-only).

A dependence only "counts" if the store can still be in flight when the load
executes.  Hardware bounds this by the store-buffer capacity; we use the same
bound (``window`` = SB entries) so that prediction-only experiments agree
with the timing model about which loads are dependent.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from .uop import BypassClass, MicroOp

__all__ = ["classify_overlap", "DependenceTracker", "StoreRecord"]


def classify_overlap(
    store_addr: int, store_size: int, load_addr: int, load_size: int
) -> BypassClass:
    """Classify the byte overlap of a store and a younger load (Fig. 1).

    Returns :data:`BypassClass.NONE` when the accesses do not overlap at all.
    """
    if store_size <= 0 or load_size <= 0:
        raise ValueError("access sizes must be positive")
    store_end = store_addr + store_size
    load_end = load_addr + load_size
    if load_end <= store_addr or store_end <= load_addr:
        return BypassClass.NONE
    contained = store_addr <= load_addr and load_end <= store_end
    if not contained:
        return BypassClass.MDP_ONLY
    if load_addr == store_addr:
        if load_size == store_size:
            return BypassClass.DIRECT
        return BypassClass.NO_OFFSET
    return BypassClass.OFFSET


class StoreRecord:
    """A dynamic store as seen by the dependence tracker."""

    __slots__ = ("seq", "store_number", "address", "size")

    def __init__(self, seq: int, store_number: int, address: int, size: int):
        self.seq = seq                  # dynamic micro-op sequence number
        self.store_number = store_number  # 0-based count of dynamic stores
        self.address = address
        self.size = size

    def __repr__(self) -> str:
        return (
            f"StoreRecord(seq={self.seq}, n={self.store_number}, "
            f"addr={self.address:#x}, size={self.size})"
        )


#: Width of the address granules the store window is indexed by (bytes, log2).
GRANULE_SHIFT = 3


def _granule_span(address: int, size: int) -> range:
    """The granules holding bytes ``[address, address + size)``."""
    return range(address >> GRANULE_SHIFT,
                 ((address + size - 1) >> GRANULE_SHIFT) + 1)


class DependenceTracker:
    """Sliding window of recent dynamic stores with byte-granular lookup.

    ``window`` bounds how many older stores can be "in flight" relative to a
    load; the Golden Cove configuration uses its 114-entry store buffer.
    Lookup returns the youngest overlapping in-flight store, matching
    store-queue forwarding semantics.
    """

    def __init__(self, window: int = 114, instr_window: int = 512):
        if window <= 0:
            raise ValueError("store window must be positive")
        if instr_window <= 0:
            raise ValueError("instruction window must be positive")
        self.window = window
        self.instr_window = instr_window
        # The in-window stores, oldest first, and the same records indexed
        # by every 8-byte granule they write (each bucket oldest first).
        # Most loads never meet a store -- stream loads read a region no
        # store writes -- so a load visits only the granules it covers
        # instead of scanning the whole window.
        self._in_window: Deque[StoreRecord] = deque()
        self._granules: Dict[int, List[StoreRecord]] = {}
        self._store_count = 0

    @property
    def store_count(self) -> int:
        """Total number of dynamic stores observed."""
        return self._store_count

    def record_store(self, uop: MicroOp) -> StoreRecord:
        """Register a dynamic store micro-op."""
        if not uop.is_store:
            raise ValueError(f"uop {uop.seq} is not a store")
        return self.record_raw_store(uop.seq, uop.address, uop.size)

    def record_raw_store(self, seq: int, address: int, size: int) -> StoreRecord:
        """Register a store without constructing a MicroOp (generator fast path)."""
        record = StoreRecord(seq, self._store_count, address, size)
        self._store_count += 1
        granules = self._granules
        for granule in _granule_span(address, size):
            bucket = granules.get(granule)
            if bucket is None:
                granules[granule] = [record]
            else:
                bucket.append(record)
        in_window = self._in_window
        in_window.append(record)
        if len(in_window) > self.window:
            # The evicted store is the oldest, so it heads each of its buckets.
            old = in_window.popleft()
            for granule in _granule_span(old.address, old.size):
                bucket = granules[granule]
                if len(bucket) == 1:
                    del granules[granule]
                else:
                    del bucket[0]
        return record

    def find_dependence(
        self, load_addr: int, load_size: int, load_seq: int
    ) -> Tuple[int, Optional[StoreRecord], BypassClass]:
        """Locate the youngest older overlapping in-flight store for a load.

        Returns ``(store_distance, store_record, bypass_class)``;
        ``(0, None, BypassClass.NONE)`` when no in-flight store overlaps.

        A store counts as in flight only if it is within both the
        store-buffer window (``window`` dynamic stores) and the reorder
        window (``instr_window`` dynamic micro-ops): a store further back has
        committed and drained before the load could dispatch, so its value is
        obtained from the cache, not by forwarding.

        The store distance counts dynamic stores between the load and the
        conflicting store *inclusive of the conflicting store*: distance 1
        means the immediately preceding store, exactly the store-queue
        offset encoding of Sec. IV-B.
        """
        if load_size <= 0:
            raise ValueError("access sizes must be positive")
        load_end = load_addr + load_size
        oldest_seq = load_seq - self.instr_window
        best: Optional[StoreRecord] = None
        granules = self._granules
        for granule in _granule_span(load_addr, load_size):
            bucket = granules.get(granule)
            if bucket is None:
                continue
            # Youngest first.  Store seqs grow with store numbers, so the
            # first record past the reorder window, or no younger than the
            # best match so far, ends the bucket.
            for idx in range(len(bucket) - 1, -1, -1):
                store = bucket[idx]
                if store.seq < oldest_seq or (
                    best is not None and store.store_number <= best.store_number
                ):
                    break
                if store.address < load_end and load_addr < store.address + store.size:
                    best = store
                    break
        if best is None:
            return 0, None, BypassClass.NONE
        cls = classify_overlap(best.address, best.size, load_addr, load_size)
        return self._store_count - best.store_number, best, cls

    def reset(self) -> None:
        self._in_window.clear()
        self._granules.clear()
        self._store_count = 0

"""Ground-truth memory dependences.

The generator writes a trace's micro-ops first and then finds every
load's dependence in one vectorised pass over the finished columns
(:func:`fill_dependences`): the youngest older store whose bytes overlap
the load's.  The pass stamps each load with the paper's two key
annotations:

* the **store distance** — how many dynamic stores back the conflicting
  store sits (1 = the immediately preceding store), the quantity MASCOT's
  7-bit distance field predicts; and
* the **bypass class** — Fig. 1's classification of whether the store can
  fully feed the load (SMB opportunity) or only partially (MDP-only),
  :func:`classify_overlap`'s geometry.

A dependence only "counts" if the store can still be in flight when the load
executes.  Hardware bounds this by the store-buffer capacity; we use the same
bound (``store_window`` = SB entries) so that prediction-only experiments
agree with the timing model about which loads are dependent.
"""

from __future__ import annotations

import numpy as np

from .columns import BYPASS_CODES, OP_CODES
from .uop import BypassClass, OpClass

__all__ = ["DEFAULT_WINDOWS", "classify_overlap", "fill_dependences"]

#: ``(store_window, instr_window)`` a trace is cut for unless a core names
#: its own: Golden Cove's 114-entry store buffer and 512-entry ROB
#: (Table I).  The trace layer does not import the core model; a tier-1
#: test pins this pair to ``GOLDEN_COVE``'s.
DEFAULT_WINDOWS = (114, 512)


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


#: Width of the address granules stores and loads are matched by (bytes,
#: log2): a store can overlap a load only if they share a granule.
GRANULE_SHIFT = 3

#: Micro-ops per block of :func:`fill_dependences`; each block also reads
#: the stores of the ``instr_window`` micro-ops before it, so the pass's
#: temporaries stay bounded however long the trace is.
_BLOCK = 1 << 12

_OP_LOAD = OP_CODES[OpClass.LOAD]
_OP_STORE = OP_CODES[OpClass.STORE]
_DIRECT = BYPASS_CODES[BypassClass.DIRECT]
_NO_OFFSET = BYPASS_CODES[BypassClass.NO_OFFSET]
_OFFSET = BYPASS_CODES[BypassClass.OFFSET]
_MDP_ONLY = BYPASS_CODES[BypassClass.MDP_ONLY]


def _granules(address: np.ndarray, size: np.ndarray):
    """Every granule the accesses ``[address, address + size)`` touch:
    ``(owner, granule)``, grouped by access in order, granules ascending."""
    first = address >> GRANULE_SHIFT
    count = ((address + size - 1) >> GRANULE_SHIFT) - first + 1
    owner = np.repeat(np.arange(len(address)), count)
    starts = np.cumsum(count) - count
    granule = first[owner] + (np.arange(len(owner)) - starts[owner])
    return owner, granule


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Mask of the first element of each run of equal ``values``."""
    starts = np.empty(len(values), bool)
    starts[:1] = True
    np.not_equal(values[1:], values[:-1], out=starts[1:])
    return starts


def fill_dependences(op: np.ndarray, address: np.ndarray, size: np.ndarray,
                     store_distance: np.ndarray, dep_store_seq: np.ndarray,
                     bypass: np.ndarray,
                     store_window: int = DEFAULT_WINDOWS[0],
                     instr_window: int = DEFAULT_WINDOWS[1]) -> None:
    """Find every load's ground-truth dependence and write it in place.

    ``op`` / ``address`` / ``size`` are a whole trace's columns (micro-op
    ``i`` has sequence number ``i``).  For each load, the dependence is the
    youngest older store whose bytes overlap the load's, provided that
    store is still in flight: among the last ``store_window`` stores
    before the load and no more than ``instr_window`` micro-ops older.  A
    store further back has committed and drained before the load could
    dispatch, so its value comes from the cache, not by forwarding.

    The load's ``store_distance`` counts dynamic stores back to the
    conflicting store *inclusive of it* (1 = the immediately preceding
    store, the store-queue offset encoding of Sec. IV-B),
    ``dep_store_seq`` names it and ``bypass`` takes its
    :func:`classify_overlap` code.  Loads without a dependence, and every
    other micro-op, are left as they are (the columns' defaults: 0, -1,
    ``NONE``).

    Stores and loads are expanded into :data:`GRANULE_SHIFT` granules;
    for each load granule a binary search over the stores sorted by
    (granule, sequence number) finds the youngest older store in it,
    and vectorised rounds step back past stores that share the granule
    but not the load's bytes.  A load takes the youngest match over its
    granules.
    """
    if store_window <= 0:
        raise ValueError("store window must be positive")
    if instr_window <= 0:
        raise ValueError("instruction window must be positive")
    for lo in range(0, len(op), _BLOCK):
        hi = min(lo + _BLOCK, len(op))
        loads = np.flatnonzero(op[lo:hi] == _OP_LOAD) + lo
        if not loads.size:
            continue
        start = max(lo - instr_window, 0)
        stores = np.flatnonzero(op[start:hi] == _OP_STORE) + start
        if not stores.size:
            continue
        _block(loads, stores, address, size, store_distance, dep_store_seq,
               bypass, store_window, instr_window)


def _block(loads, stores, address, size, store_distance, dep_store_seq,
           bypass, store_window, instr_window) -> None:
    """:func:`fill_dependences` for ``loads``, against ``stores``: every
    store of the block and of the ``instr_window`` micro-ops before it."""
    s_addr = address[stores]
    s_size = size[stores].astype(np.int64)
    l_addr = address[loads]
    l_size = size[loads].astype(np.int64)
    if (s_size <= 0).any() or (l_size <= 0).any():
        raise ValueError("access sizes must be positive")
    s_end = s_addr + s_size
    l_end = l_addr + l_size
    # Stores before each load, counted from the first store here: the
    # same difference of ranks as counted from the trace's start.
    l_rank = np.searchsorted(stores, loads)

    # Store granules sorted by (granule, store); a stable sort keeps each
    # granule's stores in program order.
    s_owner, s_gran = _granules(s_addr, s_size)
    order = np.argsort(s_gran, kind="stable")
    s_owner = s_owner[order]
    s_gran = s_gran[order]
    new_gran = _run_starts(s_gran)
    s_gid = np.cumsum(new_gran) - 1
    gran_ids = s_gran[new_gran]
    stride = len(stores) + 1
    s_key = s_gid * stride + s_owner

    # Each load granule that some store touches: the last store entry
    # keyed below (its granule, the load's rank) is the youngest store
    # in the granule older than the load.
    l_owner, l_gran = _granules(l_addr, l_size)
    gid = np.searchsorted(gran_ids, l_gran)
    gid[gid == len(gran_ids)] = 0
    hit = gran_ids[gid] == l_gran
    l_owner = l_owner[hit]
    l_gran = l_gran[hit]
    pos = np.searchsorted(s_key, gid[hit] * stride + l_rank[l_owner]) - 1

    # Youngest overlapping in-flight store per load granule (-1: none).
    match = np.full(len(l_owner), -1)
    active = np.flatnonzero((pos >= 0) & (s_gran[np.maximum(pos, 0)] == l_gran))
    while active.size:
        p = pos[active]
        cand = s_owner[p]
        owner = l_owner[active]
        in_flight = ((l_rank[owner] - cand <= store_window)
                     & (stores[cand] >= loads[owner] - instr_window))
        overlaps = (s_addr[cand] < l_end[owner]) & (l_addr[owner] < s_end[cand])
        found = in_flight & overlaps
        match[active[found]] = cand[found]
        # Past the window every older store is out of flight too; a
        # non-overlapping store steps back within its granule.
        step = in_flight & ~overlaps
        active = active[step]
        p = p[step] - 1
        pos[active] = p
        keep = (p >= 0) & (s_gran[np.maximum(p, 0)] == l_gran[active])
        active = active[keep]

    # The youngest match over each load's granules (entries are grouped
    # by load, loads in order).
    if not l_owner.size:
        return
    first = np.flatnonzero(_run_starts(l_owner))
    best = np.maximum.reduceat(match, first)
    dependent = l_owner[first][best >= 0]
    store = best[best >= 0]
    seq = loads[dependent]
    sa, ss = s_addr[store], s_size[store]
    la, ls = l_addr[dependent], l_size[dependent]
    contained = (sa <= la) & (la + ls <= sa + ss)
    aligned = np.where(ls == ss, _DIRECT, _NO_OFFSET)
    store_distance[seq] = l_rank[dependent] - store
    dep_store_seq[seq] = stores[store]
    bypass[seq] = np.where(contained, np.where(la == sa, aligned, _OFFSET),
                           _MDP_ONLY)

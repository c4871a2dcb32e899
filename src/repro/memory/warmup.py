"""Functional cache warmup: reconstruct LRU state without replaying.

Sampled simulation (:mod:`repro.sampling`) measures a region mid-trace,
but a freshly built :class:`~repro.memory.hierarchy.MemoryHierarchy`
starts cold — and the L3 alone holds ~200k lines, so replaying enough of
the trace to warm it would cost more than the sampling saves.  This
module rebuilds the caches' steady state directly from the memory-access
stream preceding the region, in a few vectorised passes.

The reconstruction rule: for a true-LRU set-associative cache with
allocate-on-miss and move-to-MRU-on-hit, the content of each set after
an access stream is the set's last ``ways`` *distinct* lines, ordered by
last access.  For the L1D — which observes every demand access — this is
the exact final state.  The outer levels observe only the inner levels'
misses, so their true recency order is by last *miss*, not last access;
using last access instead is the classic Memory Timestamp Record
approximation (Barr et al., ISPASS 2005): a line recently re-accessed
through an inner-level hit is assumed still resident and warm in the
outer levels too.  Prefetcher-inserted lines and MSHR occupancy are
transient and not reconstructed.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..trace.columns import OP_CODES, Trace
from ..trace.uop import OpClass
from .cache import Cache
from .hierarchy import MemoryHierarchy

__all__ = [
    "WarmupIndex",
    "memory_access_stream",
    "preload_cache",
    "warm_hierarchy",
]


def memory_access_stream(trace: Trace) -> Tuple[np.ndarray, np.ndarray]:
    """(positions, addresses) of the trace's memory accesses, in order,
    read from its columns.

    Loads and stores both probe the hierarchy
    (:meth:`~repro.memory.hierarchy.MemoryHierarchy.store_probe` models
    write-allocate), so both appear in the stream.  ``positions`` are uop
    sequence numbers — callers cut the stream at a region boundary with
    ``np.searchsorted(positions, start)``.
    """
    cols = trace.columns
    mask = (cols.op == OP_CODES[OpClass.LOAD]) | (
        cols.op == OP_CODES[OpClass.STORE])
    return np.flatnonzero(mask), cols.address[mask]


class WarmupIndex:
    """Reusable index for warming hierarchies at many trace positions.

    The naive per-position reconstruction re-sorts the whole access
    prefix for every region — O(k · N log N) across a selection.  This
    index pays one stable sort of the access stream grouped by line,
    after which the state before any cut falls out of a single O(N)
    ``maximum.reduceat`` pass: within each line's group the access
    indices ascend, so the largest index below the cut is that line's
    last access before it (and lines whose group holds no such index are
    not yet resident).
    """

    def __init__(self, positions: np.ndarray, addresses: np.ndarray,
                 line_size: int):
        self.positions = positions
        shift = line_size.bit_length() - 1
        lines = addresses >> shift
        order = np.argsort(lines, kind="stable")
        sorted_lines = lines[order]
        if len(sorted_lines):
            first = np.r_[True, sorted_lines[1:] != sorted_lines[:-1]]
            self._group_starts = np.flatnonzero(first)
            self._group_lines = sorted_lines[self._group_starts]
        else:
            self._group_starts = np.zeros(0, dtype=np.int64)
            self._group_lines = sorted_lines
        self._access_index = order

    @classmethod
    def from_trace(cls, trace: Trace, line_size: int) -> "WarmupIndex":
        """The index over ``trace``'s :func:`memory_access_stream`."""
        positions, addresses = memory_access_stream(trace)
        return cls(positions, addresses, line_size)

    def state_before(self, start: int) -> Tuple[np.ndarray, np.ndarray]:
        """(unique_lines, last_access) for the stream before uop ``start``."""
        if not len(self._group_lines):
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty
        cut = int(np.searchsorted(self.positions, start))
        candidate = np.where(self._access_index < cut,
                             self._access_index, -1)
        last = np.maximum.reduceat(candidate, self._group_starts)
        present = last >= 0
        return self._group_lines[present], last[present]

    def warm(self, hierarchy: MemoryHierarchy, start: int) -> None:
        """Preload every level with the state before uop ``start``."""
        unique_lines, last_access = self.state_before(start)
        for cache in (hierarchy.l1d, hierarchy.l2, hierarchy.l3):
            preload_cache(cache, unique_lines, last_access)


def _last_occurrences(lines: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Distinct lines with the stream position of their last access."""
    reversed_lines = lines[::-1]
    unique, first_in_reversed = np.unique(reversed_lines, return_index=True)
    return unique, lines.shape[0] - 1 - first_in_reversed


def preload_cache(cache: Cache, unique_lines: np.ndarray,
                  last_access: np.ndarray) -> None:
    """Install the reconstructed LRU state into one cache level."""
    if unique_lines.shape[0] == 0:
        return
    if cache._set_mask is not None:
        set_index = unique_lines & cache._set_mask
    else:
        set_index = unique_lines % cache.num_sets
    order = np.lexsort((last_access, set_index))
    sorted_sets = set_index[order]
    sorted_lines = unique_lines[order]
    boundaries = np.flatnonzero(np.diff(sorted_sets)) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [sorted_sets.shape[0]]))
    ways = cache.ways
    for a, b in zip(starts, ends):
        take = sorted_lines[max(a, b - ways):b]
        cache.preload(int(sorted_sets[a]), [int(line) for line in take])


def warm_hierarchy(hierarchy: MemoryHierarchy,
                   addresses: np.ndarray) -> None:
    """Warm every cache level from an in-order address stream.

    ``addresses`` is the demand stream (loads + stores) preceding the
    measurement point, as produced by :func:`memory_access_stream`.  All
    levels share the hierarchy's line size, so the distinct-line/last-
    access computation is done once and regrouped per level's geometry.
    """
    if addresses.shape[0] == 0:
        return
    shift = hierarchy.config.line_size.bit_length() - 1
    lines = addresses >> shift
    unique_lines, last_access = _last_occurrences(lines)
    for cache in (hierarchy.l1d, hierarchy.l2, hierarchy.l3):
        preload_cache(cache, unique_lines, last_access)

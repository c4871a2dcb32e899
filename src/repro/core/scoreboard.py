"""Windowed numpy scoreboards for the batched timing engine.

The scalar :class:`~repro.core.pipeline.Pipeline` tracks per-uop timing in
unbounded python lists and per-store state in a dict-of-dataclasses
(:class:`~repro.core.lsu.StoreWindow`).  The batched engine replaces the
*windowed* lookups — "when did the uop ``capacity`` slots ago commit?" —
with fixed-size numpy ring buffers, and the per-store dataclass fields with
per-seq numpy columns indexed directly by sequence number.

Semantics are pinned to the scalar structures by the property tests in
``tests/core/test_scoreboard_properties.py``: a :class:`RingWindow` of
capacity ``k`` returns exactly ``history[-k]`` (the scalar code's
``list[seq - k]`` / ``deque[-k]`` reads), and :class:`StoreScoreboard`
mirrors :class:`StoreTiming` field-for-field.
"""

from __future__ import annotations

import numpy as np

__all__ = ["RingWindow", "StoreScoreboard"]


class RingWindow:
    """Fixed-capacity ring over a monotone event stream.

    ``push(value)`` appends; ``release_point()`` returns the value pushed
    ``capacity`` events ago (the scalar window-release read), or ``None``
    while fewer than ``capacity`` values have been pushed.  Backed by a
    numpy buffer so bulk snapshots (:meth:`history`) are cheap, but the
    per-event path works on native ints.
    """

    __slots__ = ("capacity", "_buf", "_count")

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("RingWindow capacity must be positive")
        self.capacity = capacity
        self._buf = np.zeros(capacity, dtype=np.int64)
        self._count = 0

    def __len__(self) -> int:
        return min(self._count, self.capacity)

    @property
    def total_pushed(self) -> int:
        return self._count

    def push(self, value: int) -> None:
        self._buf[self._count % self.capacity] = value
        self._count += 1

    def release_point(self):
        """Value pushed ``capacity`` events ago, or None if not yet full.

        When the ring is full, the slot about to be overwritten *is* the
        oldest live value — i.e. ``history[-capacity]`` — so a single
        modular read serves the scalar ``list[-k]`` lookup.
        """
        if self._count < self.capacity:
            return None
        return int(self._buf[self._count % self.capacity])

    def history(self) -> np.ndarray:
        """Live window contents, oldest first (for tests/diagnostics)."""
        if self._count <= self.capacity:
            return self._buf[: self._count].copy()
        cut = self._count % self.capacity
        return np.concatenate([self._buf[cut:], self._buf[:cut]])


class StoreScoreboard:
    """Per-seq columns replacing :class:`repro.core.lsu.StoreTiming`.

    Arrays are indexed by dynamic sequence number; only store slots are
    ever written.  ``-1`` marks "not a tracked store".  The recency
    window itself (which stores are still in the capacity-bounded LSU
    window) stays with the engine's deque mirror — this class only owns
    the timing fields.
    """

    __slots__ = ("addr_resolve", "data_ready", "drain", "branch_count")

    def __init__(self, num_uops: int) -> None:
        self.addr_resolve = np.full(num_uops, -1, dtype=np.int64)
        self.data_ready = np.full(num_uops, -1, dtype=np.int64)
        self.drain = np.full(num_uops, -1, dtype=np.int64)
        self.branch_count = np.full(num_uops, -1, dtype=np.int64)

    def record(self, seq: int, addr_resolve: int, data_ready: int,
               drain: int, branch_count: int) -> None:
        self.addr_resolve[seq] = addr_resolve
        self.data_ready[seq] = data_ready
        self.drain[seq] = drain
        self.branch_count[seq] = branch_count

    def forward_ready(self, seq: int) -> int:
        return int(max(self.addr_resolve[seq], self.data_ready[seq]))

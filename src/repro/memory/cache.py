"""Set-associative cache model.

The paper models its memory hierarchy with GEMS; we substitute a classic
set-associative LRU cache usable at every level.  Only hit/miss behaviour
and latency matter to the experiments (no coherence, no data values): SMB's
benefit is measured against how long a load would otherwise take, which this
model supplies.
"""

from __future__ import annotations

from typing import Dict, List, Optional

__all__ = ["Cache", "CacheStats"]


class CacheStats:
    """Hit/miss counters for one cache level."""

    __slots__ = ("accesses", "hits", "misses", "evictions", "prefetch_fills")

    def __init__(self) -> None:
        self.accesses = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.prefetch_fills = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def __repr__(self) -> str:
        return (
            f"CacheStats(accesses={self.accesses}, hits={self.hits}, "
            f"misses={self.misses})"
        )


class Cache:
    """A single set-associative cache level with true-LRU replacement.

    Sizes are given in bytes; ``line_size`` must be a power of two.  LRU
    order is maintained with per-set lists of line addresses ordered from
    least- to most-recently used, which is simple and fast at the
    associativities involved (8–12 ways).
    """

    def __init__(self, name: str, size_bytes: int, ways: int, line_size: int = 64):
        if size_bytes <= 0 or ways <= 0 or line_size <= 0:
            raise ValueError("cache geometry must be positive")
        if line_size & (line_size - 1):
            raise ValueError("line size must be a power of two")
        if size_bytes % (ways * line_size):
            raise ValueError(
                f"{name}: size {size_bytes} not divisible by ways*line "
                f"({ways}*{line_size})"
            )
        self.name = name
        self.size_bytes = size_bytes
        self.ways = ways
        self.line_size = line_size
        self.num_sets = size_bytes // (ways * line_size)
        self._offset_bits = line_size.bit_length() - 1
        # Power-of-two set counts index with a mask; others fall back to
        # modulo (both geometries appear in sensitivity sweeps).
        self._set_mask = (
            self.num_sets - 1
            if self.num_sets & (self.num_sets - 1) == 0 else None
        )
        self.stats = CacheStats()
        # set index -> list of tags, LRU first.
        self._sets: Dict[int, List[int]] = {}

    def lookup(self, address: int, *, fill: bool = True,
               is_prefetch: bool = False) -> bool:
        """Probe the cache; returns True on hit.

        On a miss the line is filled (allocate-on-miss) unless ``fill`` is
        False.  Prefetch fills are counted separately so prefetcher accuracy
        is observable in the stats.
        """
        line = address >> self._offset_bits
        set_mask = self._set_mask
        set_index = (line & set_mask if set_mask is not None
                     else line % self.num_sets)
        ways = self._sets.get(set_index)
        stats = self.stats
        stats.accesses += 1
        if ways is not None and line in ways:
            stats.hits += 1
            # Move to MRU position (no-op when already there).
            if ways[-1] != line:
                ways.remove(line)
                ways.append(line)
            return True
        stats.misses += 1
        if fill:
            # Allocate-on-miss, inline (the line is known absent).
            if ways is None:
                ways = self._sets[set_index] = []
            elif len(ways) >= self.ways:
                ways.pop(0)
                stats.evictions += 1
            ways.append(line)
            if is_prefetch:
                stats.prefetch_fills += 1
        return False

    def contains(self, address: int) -> bool:
        """Non-destructive probe (no stats, no LRU update)."""
        line = address >> self._offset_bits
        set_mask = self._set_mask
        ways = self._sets.get(line & set_mask if set_mask is not None
                              else line % self.num_sets)
        return ways is not None and line in ways

    def fill(self, address: int, *, is_prefetch: bool = False) -> Optional[int]:
        """Insert a line; returns the evicted line address (or None)."""
        line = address >> self._offset_bits
        set_mask = self._set_mask
        set_index = (line & set_mask if set_mask is not None
                     else line % self.num_sets)
        ways = self._sets.get(set_index)
        if ways is None:
            ways = self._sets[set_index] = []
        elif line in ways:
            if ways[-1] != line:
                ways.remove(line)
                ways.append(line)
            return None
        evicted = None
        if len(ways) >= self.ways:
            evicted = ways.pop(0) << self._offset_bits
            self.stats.evictions += 1
        ways.append(line)
        if is_prefetch:
            self.stats.prefetch_fills += 1
        return evicted

    def preload(self, set_index: int, lines: List[int]) -> None:
        """Install one set's content as pre-existing state (LRU first).

        Used by functional warmup (:mod:`repro.memory.warmup`) to place a
        reconstructed steady state without paying per-access replay; the
        fill bypasses the stats counters, exactly like state inherited
        from before a measurement window.
        """
        if not 0 <= set_index < self.num_sets:
            raise ValueError(f"{self.name}: set {set_index} out of range")
        if len(lines) > self.ways:
            raise ValueError(
                f"{self.name}: {len(lines)} lines exceed {self.ways} ways"
            )
        self._sets[set_index] = list(lines)

    def reset(self) -> None:
        self._sets.clear()
        self.stats = CacheStats()

    def __repr__(self) -> str:
        return (
            f"Cache({self.name}, {self.size_bytes // 1024}KB, "
            f"{self.ways}-way, {self.num_sets} sets)"
        )

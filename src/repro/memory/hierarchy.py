"""Three-level cache hierarchy with Table I's Golden Cove parameters.

``MemoryHierarchy.load_latency(pc, address)`` is the single entry point the
timing pipeline uses: it probes L1D → L2 → L3, fills on the way back, feeds
the IP-stride prefetcher, and returns the access latency in cycles.  Stores
probe without timing consequence in our model (the store buffer hides store
latency; Table I's machine drains stores post-commit).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .cache import Cache
from .mshr import MSHRFile
from .prefetch import IPStridePrefetcher

__all__ = ["HierarchyConfig", "MemoryHierarchy"]


@dataclass(frozen=True)
class HierarchyConfig:
    """Geometry and latencies of the modelled hierarchy (Table I)."""

    l1d_size: int = 48 * 1024
    l1d_ways: int = 12
    l1d_latency: int = 5

    l2_size: int = 1_280 * 1024  # 1.25 MB
    l2_ways: int = 10
    l2_latency: int = 14

    l3_size: int = 12 * 1024 * 1024  # 3 MB/bank x 4 banks
    l3_ways: int = 12
    l3_latency: int = 36

    memory_latency: int = 100
    line_size: int = 64

    prefetch_degree: int = 3
    prefetch_enabled: bool = True

    #: Outstanding-miss registers at the L1D (Table I: 64 MSHRs); 0
    #: disables the bound (infinite MLP).
    mshr_entries: int = 64

    def __post_init__(self) -> None:
        for name in ("l1d_latency", "l2_latency", "l3_latency", "memory_latency"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not (self.l1d_latency < self.l2_latency < self.l3_latency
                < self.memory_latency):
            raise ValueError("latencies must increase down the hierarchy")


class MemoryHierarchy:
    """L1D + L2 + L3 + memory with an L1D IP-stride prefetcher."""

    def __init__(self, config: Optional[HierarchyConfig] = None):
        self.config = config or HierarchyConfig()
        c = self.config
        self.l1d = Cache("L1D", c.l1d_size, c.l1d_ways, c.line_size)
        self.l2 = Cache("L2", c.l2_size, c.l2_ways, c.line_size)
        self.l3 = Cache("L3", c.l3_size, c.l3_ways, c.line_size)
        self.prefetcher = IPStridePrefetcher(degree=c.prefetch_degree)
        self.mshrs = (
            MSHRFile(c.mshr_entries) if c.mshr_entries > 0 else None
        )
        # Hot-path constants hoisted out of the per-load attribute chain
        # (the config dataclass is frozen, so these can never go stale).
        self._lat_l1d = c.l1d_latency
        self._lat_l2 = c.l2_latency
        self._lat_l3 = c.l3_latency
        self._lat_mem = c.memory_latency
        self._line_shift = c.line_size.bit_length() - 1
        self._prefetch_enabled = c.prefetch_enabled

    def load_latency(self, pc: int, address: int) -> int:
        """Demand load: probe the hierarchy and return latency in cycles."""
        latency = self._access(address)
        if self._prefetch_enabled:
            for prefetch_addr in self.prefetcher.observe(pc, address):
                self._prefetch(prefetch_addr)
        return latency

    def timed_load(self, pc: int, address: int, now: int) -> int:
        """Demand load at cycle ``now``; returns the completion cycle.

        Misses pass through the L1D MSHR file (Table I: 64 entries): when
        all registers hold outstanding fills, a new miss waits for the
        earliest fill to retire, bounding memory-level parallelism exactly
        as the hardware does.  Secondary misses to an in-flight line merge
        and complete with the original fill.
        """
        latency = self._access(address)
        if self._prefetch_enabled:
            for prefetch_addr in self.prefetcher.observe(pc, address):
                self._prefetch(prefetch_addr)
        if self.mshrs is None or latency <= self._lat_l1d:
            return now + latency
        _, completion = self.mshrs.request(
            address >> self._line_shift, now, latency)
        return completion

    def store_probe(self, address: int) -> None:
        """Bring a store's line in (write-allocate); no timing effect."""
        self._access(address)

    def _access(self, address: int) -> int:
        # lookup() allocates on miss, so a miss at level N both probes and
        # fills level N; deeper levels are only touched after a miss.
        if self.l1d.lookup(address):
            return self._lat_l1d
        if self.l2.lookup(address):
            return self._lat_l2
        if self.l3.lookup(address):
            return self._lat_l3
        return self._lat_mem

    def _prefetch(self, address: int) -> None:
        """Prefetch into L1D (and outer levels) without demand stats."""
        if self.l1d.contains(address):
            return
        self.l1d.fill(address, is_prefetch=True)
        if not self.l2.contains(address):
            self.l2.fill(address, is_prefetch=True)

    def reset(self) -> None:
        self.l1d.reset()
        self.l2.reset()
        self.l3.reset()
        self.prefetcher.reset()
        if self.mshrs is not None:
            self.mshrs.reset()

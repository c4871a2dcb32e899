"""Core configurations: Golden Cove (Table I) and Lion Cove (Sec. VI-C).

The Golden Cove parameters follow Table I directly (6-wide front end, 12
execution ports, 8-wide commit, 512/204/192/114 ROB/IQ/LQ/SB, 3 load + 2
store ports).  Lion Cove follows the paper's source (the Chips-and-Cheese
preview): a wider front end and commit, and enlarged windows — the point of
Fig. 12 is only that *larger structures raise the SMB ceiling*, so the exact
values matter less than the scaling.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict

from ..memory.hierarchy import HierarchyConfig

__all__ = ["CoreConfig", "GOLDEN_COVE", "LION_COVE"]


@dataclass(frozen=True)
class CoreConfig:
    """All parameters of the trace-driven out-of-order timing model.

    A cell's core is also the core its trace is cut for: ``sb_size`` and
    ``rob_size`` bound the trace's ground-truth dependences
    (:func:`repro.experiments.runner.trace_key`); timing cells also
    simulate it.
    """

    name: str

    # Front end.
    fetch_width: int = 6
    #: Decode→rename→dispatch depth in cycles; also the minimum cost of any
    #: pipeline redirect (branch mispredict, memory-order squash).
    frontend_latency: int = 10

    # Windows.
    rob_size: int = 512
    iq_size: int = 204
    lq_size: int = 192
    sb_size: int = 114

    # Back end.
    commit_width: int = 8
    load_ports: int = 3
    store_ports: int = 2
    alu_ports: int = 5
    fp_ports: int = 3

    # Execution latencies (cycles).
    alu_latency: int = 1
    mul_latency: int = 3
    div_latency: int = 12
    fp_latency: int = 4
    branch_latency: int = 1
    agu_latency: int = 1

    #: Store-buffer drain: cycles after commit before an SB entry frees.
    #: A load issuing after its conflicting store drained reads the cache;
    #: there is nothing left to forward from.
    sb_drain_latency: int = 4
    #: Store-to-load forwarding latency — Sec. V: the SB "is searched
    #: associatively and in parallel with the L1D access, incurring the same
    #: latency as the L1D".
    forward_latency: int = 5
    #: Extra redirect cost of a memory-order / bypass-verification squash on
    #: top of the front-end refill.
    squash_overhead: int = 5

    memory: HierarchyConfig = field(default_factory=HierarchyConfig)

    def __post_init__(self) -> None:
        positive = (
            "fetch_width", "frontend_latency", "rob_size", "iq_size",
            "lq_size", "sb_size", "commit_width", "load_ports",
            "store_ports", "alu_ports", "fp_ports",
        )
        for attr in positive:
            if getattr(self, attr) <= 0:
                raise ValueError(f"{attr} must be positive")

    def with_(self, **kwargs) -> "CoreConfig":
        return replace(self, **kwargs)

    @property
    def total_ports(self) -> int:
        return (self.load_ports + self.store_ports + self.alu_ports
                + self.fp_ports)

    def summary(self) -> Dict[str, str]:
        """Table I-style description rows."""
        return {
            "Front-end width": f"{self.fetch_width}-wide fetch and decode",
            "Back-end width": (
                f"{self.total_ports} execution ports and "
                f"{self.commit_width} commit width"
            ),
            "ROB/IQ/LQ/SB": (
                f"{self.rob_size}/{self.iq_size}/{self.lq_size}/"
                f"{self.sb_size} entries"
            ),
            "L1D": (
                f"{self.memory.l1d_size // 1024}KB, {self.memory.l1d_ways} "
                f"ways, {self.memory.l1d_latency}-cycle hit latency"
            ),
            "L2": (
                f"{self.memory.l2_size // 1024}KB, {self.memory.l2_ways} "
                f"ways, {self.memory.l2_latency}-cycle hit latency"
            ),
            "L3": (
                f"{self.memory.l3_size // 1024 // 1024}MB, "
                f"{self.memory.l3_ways} ways, "
                f"{self.memory.l3_latency}-cycle hit latency"
            ),
            "Memory": f"{self.memory.memory_latency}-cycle access latency",
        }


#: Table I: 4-core Golden Cove processor (one core modelled).
GOLDEN_COVE = CoreConfig(name="golden-cove")

#: Sec. VI-C's future architecture: wider and deeper (Lion Cove preview).
LION_COVE = CoreConfig(
    name="lion-cove",
    fetch_width=8,
    rob_size=576,
    iq_size=240,
    lq_size=224,
    sb_size=128,
    commit_width=12,
    load_ports=3,
    store_ports=2,
    alu_ports=6,
    fp_ports=4,
)

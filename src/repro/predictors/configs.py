"""MASCOT configurations: the default, MASCOT-OPT and tag-reduced variants.

Sec. IV-B gives the default: 8 tables with history lengths
[0, 2, 4, 8, 16, 32, 64, 128], 512 entries each, 4-way associative, 16-bit
tags, a 3-bit usefulness counter and a 2-bit bypass counter per entry
(28 bits/entry, 14 KiB total).

Sec. VI-D derives MASCOT-OPT from the F1 tuning study: table sizes
[1024, 512, 512, 512, 256, 256, 256, 128] with tag sizes
[15, 16, 16, 16, 17, 17, 17, 18] (widened tags keep the per-table collision
likelihood constant as sets shrink), a 16 % size reduction; reducing all
tags by a further 4 bits costs 0.13 % IPC and reaches 10.1 KiB.

Sec. VI-B's ablation, :data:`TAGE_NO_ND_CONFIG`, is MASCOT without
non-dependence allocation: "on a false dependency, it will simply decrement
the confidence of the predicting entry, similar to previous MDP and SMB
implementations using TAGE" (Fig. 11).  It accumulates more than 12× as
many false dependencies, which die only by slow counter decay, taking SMB
confidence with them.  As a config of the same class, the comparison
isolates exactly the allocation-policy difference.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Tuple

__all__ = [
    "MascotConfig",
    "MASCOT_DEFAULT",
    "MASCOT_OPT",
    "mascot_opt_reduced_tags",
    "TAGE_NO_ND_CONFIG",
]


@dataclass(frozen=True)
class MascotConfig:
    """Full parameterisation of a MASCOT-style predictor."""

    name: str = "mascot"
    history_lengths: Tuple[int, ...] = (0, 2, 4, 8, 16, 32, 64, 128)
    table_entries: Tuple[int, ...] = (512,) * 8
    tag_bits: Tuple[int, ...] = (16,) * 8
    ways: int = 4
    distance_bits: int = 7
    usefulness_bits: int = 3
    bypass_bits: int = 2
    path_bits: int = 16

    #: Initial usefulness for newly allocated dependence entries (Sec. IV-C).
    alloc_usefulness_dep: int = 6
    #: Initial usefulness for newly allocated non-dependence entries.
    alloc_usefulness_nondep: int = 2

    #: When False the bypass counter is ignored and only MDP predictions are
    #: produced (the "MDP-only version of MASCOT" of Fig. 9).
    smb_enabled: bool = True
    #: The key MASCOT innovation; False gives the Sec. VI-B ablation (a
    #: TAGE-like predictor that only decays confidence on false dependencies).
    allocate_nondependencies: bool = True
    #: Extension (Sec. IV-E: "easily extended... by incorporating a shifting
    #: field"): also predict SMB for OFFSET-class dependencies.
    offset_bypass: bool = False
    #: Optional periodic usefulness decay (paper: tried, no meaningful
    #: change); 0 disables, otherwise the period in committed loads.
    decay_period: int = 0

    def __post_init__(self) -> None:
        n = len(self.history_lengths)
        if not (len(self.table_entries) == len(self.tag_bits) == n):
            raise ValueError("per-table tuples must have equal length")
        if n == 0:
            raise ValueError("need at least one table")
        if list(self.history_lengths) != sorted(self.history_lengths):
            raise ValueError("history lengths must be non-decreasing")
        if any(e <= 0 or e % self.ways for e in self.table_entries):
            raise ValueError("table entries must be positive multiples of ways")
        if any(t <= 0 for t in self.tag_bits):
            raise ValueError("tag widths must be positive")
        if not (1 <= self.usefulness_bits <= 8 and 1 <= self.bypass_bits <= 8):
            raise ValueError("counter widths must be 1-8 bits")
        max_useful = (1 << self.usefulness_bits) - 1
        if not (0 < self.alloc_usefulness_dep <= max_useful):
            raise ValueError("alloc_usefulness_dep out of counter range")
        if not (0 < self.alloc_usefulness_nondep <= max_useful):
            raise ValueError("alloc_usefulness_nondep out of counter range")

    @property
    def num_tables(self) -> int:
        return len(self.history_lengths)

    def with_(self, **kwargs) -> "MascotConfig":
        """Derive a modified copy (dataclasses.replace wrapper)."""
        return replace(self, **kwargs)


#: The paper's default MASCOT (Sec. IV-B): 14 KiB.
MASCOT_DEFAULT = MascotConfig()

#: MASCOT-OPT (Sec. VI-D): resized tables and compensating tag widths.
#: (The paper rounds its 11.8125 KiB down to "11.75 KB" in Table II.)
MASCOT_OPT = MascotConfig(
    name="mascot-opt",
    table_entries=(1024, 512, 512, 512, 256, 256, 256, 128),
    tag_bits=(15, 16, 16, 16, 17, 17, 17, 18),
)


def mascot_opt_reduced_tags(reduction: int) -> MascotConfig:
    """MASCOT-OPT with every tag shrunk by ``reduction`` bits (Fig. 15).

    The paper evaluates reductions of 2, 4 and 6 bits; 4 bits reaches
    10.1 KiB for an IPC loss of 0.13 %.
    """
    if reduction < 0:
        raise ValueError("tag reduction must be non-negative")
    return MASCOT_OPT.with_(
        name=f"mascot-opt-tag{reduction}",
        tag_bits=tuple(t - reduction for t in MASCOT_OPT.tag_bits),
    )


#: MASCOT without non-dependence allocation (Sec. VI-B, Fig. 11).
TAGE_NO_ND_CONFIG = MASCOT_DEFAULT.with_(name="tage-no-nd",
                                         allocate_nondependencies=False)

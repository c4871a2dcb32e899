"""Shared low-level infrastructure: bit ops, hashing, history, statistics."""

from .bitops import fold_bits, mask
from .hashing import mix64, table_index, table_tag
from .history import (
    INDIRECT_TARGET_BITS,
    FoldedRegister,
    GlobalHistory,
    PathHistory,
)
from .statistics import (
    Histogram,
    arithmetic_mean,
    f1_score,
    geometric_mean,
    normalise,
)

__all__ = [
    "fold_bits",
    "mask",
    "mix64",
    "table_index",
    "table_tag",
    "INDIRECT_TARGET_BITS",
    "FoldedRegister",
    "GlobalHistory",
    "PathHistory",
    "Histogram",
    "arithmetic_mean",
    "f1_score",
    "geometric_mean",
    "normalise",
]

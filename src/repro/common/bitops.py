"""Bit-manipulation helpers shared by predictors and history registers.

All predictor structures in this package (MASCOT, PHAST, NoSQ, the branch
predictors) index their tables with *folded* combinations of program counters
and history bits.  These helpers centralise the masking/folding arithmetic so
that every structure computes indices the same way.
"""

from __future__ import annotations

__all__ = ["mask", "fold_bits"]


def mask(width: int) -> int:
    """Return a bit-mask of ``width`` ones (``mask(3) == 0b111``).

    ``width`` must be non-negative; ``mask(0)`` is 0.
    """
    if width < 0:
        raise ValueError(f"mask width must be >= 0, got {width}")
    return (1 << width) - 1


def fold_bits(value: int, in_width: int, out_width: int) -> int:
    """XOR-fold the low ``in_width`` bits of ``value`` down to ``out_width`` bits.

    This is the classic TAGE folding operation: the input is split into
    ``out_width``-bit chunks which are XOR-ed together.  Folding a value into
    itself (``in_width <= out_width``) simply masks it.
    """
    if out_width <= 0:
        return 0
    value &= mask(in_width)
    folded = 0
    while value:
        folded ^= value & mask(out_width)
        value >>= out_width
    return folded


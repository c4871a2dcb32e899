"""Flattened, ring-buffered mirror of a :class:`GlobalHistory`.

The scalar :class:`~repro.common.history.GlobalHistory` keeps its bits in a
deque and updates each attached :class:`FoldedRegister` by reading the bit
about to leave that register's window — ``self._bits[reg.length - 1]`` —
which is an O(length) deque walk per register per pushed bit.  On the
simulator hot path (every conditional branch updates up to ~20 registers
with windows up to 128 bits) this is the dominant history cost.

:class:`FoldVector` is the batched engine's mirror: the bits live in a
power-of-two ring (O(1) evicted-bit reads) and the fold values in a flat
list updated with the exact :class:`FoldedRegister` recurrence.  A
:class:`~repro.common.foldplan.FoldPlan` builds one from the live
``GlobalHistory`` when a predictor is primed and :meth:`sync_back`\\ s it
at the end of the run, so the predictor object's state after a batched
run is indistinguishable from a scalar run.  Equivalence against
``GlobalHistory.fold_snapshot`` is property-tested.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Tuple

from .bitops import fold_bits
from .history import INDIRECT_TARGET_BITS, GlobalHistory

__all__ = ["FoldVector"]


class FoldVector:
    """Ring-buffered history bits plus flattened folded registers."""

    __slots__ = ("_ghist", "_ring", "_ring_mask", "_pos", "_keys",
                 "_lengths", "_widths", "_evict_xor", "_masks", "values",
                 "_slots")

    def __init__(self, ghist: GlobalHistory) -> None:
        self._ghist = ghist
        size = 1
        while size < ghist.max_bits:
            size <<= 1
        self._ring_mask = size - 1
        ring = [0] * size
        # ghist.bits() returns newest-first; lay the ring out oldest-first
        # so the bit of age k sits at (pos - 1 - k) & mask.
        pos = 0
        for bit in reversed(ghist.bits(ghist.max_bits)):
            ring[pos] = bit
            pos += 1
        self._ring = ring
        self._pos = pos

        keys: List[Tuple[int, int]] = []
        lengths: List[int] = []
        widths: List[int] = []
        evict_xor: List[int] = []
        masks: List[int] = []
        values: List[int] = []
        for (length, width), reg in ghist._folds.items():
            keys.append((length, width))
            lengths.append(length)
            widths.append(width)
            evict_xor.append((1 << (length % width)) if length else 0)
            masks.append((1 << width) - 1)
            values.append(reg.value)
        self._keys = keys
        self._lengths = lengths
        self._widths = widths
        self._evict_xor = evict_xor
        self._masks = masks
        self.values = values
        self._slots: Dict[Tuple[int, int], int] = {
            key: i for i, key in enumerate(keys)
        }

    def slot(self, length: int, width: int) -> int:
        """Index into :attr:`values` for the ``(length, width)`` register."""
        return self._slots[(length, width)]

    # -- updates ---------------------------------------------------------------

    def push_bit(self, bit: int) -> None:
        """Mirror of ``GlobalHistory._push_bit`` (same recurrence, O(1) reads)."""
        bit &= 1
        pos = self._pos
        ring = self._ring
        rmask = self._ring_mask
        values = self.values
        lengths = self._lengths
        widths = self._widths
        evict_xor = self._evict_xor
        masks = self._masks
        for i in range(len(values)):
            length = lengths[i]
            if length == 0:
                continue
            value = (values[i] << 1) | bit
            value ^= value >> widths[i]
            value &= masks[i]
            if ring[(pos - length) & rmask]:
                value ^= evict_xor[i]
            values[i] = value
        ring[pos & rmask] = bit
        self._pos = pos + 1

    def push_indirect(self, target: int) -> None:
        folded = fold_bits(target, max(target.bit_length(), 1),
                           INDIRECT_TARGET_BITS)
        push = self.push_bit
        for i in range(INDIRECT_TARGET_BITS - 1, -1, -1):
            push((folded >> i) & 1)

    # -- hand-off --------------------------------------------------------------

    def sync_back(self) -> None:
        """Write bits and fold values back into the source GlobalHistory."""
        ghist = self._ghist
        folds = ghist._folds
        for key, value in zip(self._keys, self.values):
            folds[key].value = value
        pos = self._pos
        ring = self._ring
        rmask = self._ring_mask
        newest_first = [ring[(pos - 1 - k) & rmask]
                        for k in range(ghist.max_bits)]
        ghist._bits = deque(newest_first, maxlen=ghist.max_bits)

    def bits(self, length: int) -> List[int]:
        """Most recent ``length`` bits, newest first (test oracle hook)."""
        pos = self._pos
        ring = self._ring
        rmask = self._ring_mask
        return [ring[(pos - 1 - k) & rmask] for k in range(length)]

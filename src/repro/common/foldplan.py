"""Vectorised fold-value series for a branch stream known ahead of time.

The batched engine replays the *architectural* branch-outcome stream, which
is a pure function of the trace — so every folded-history register value a
predictor will ever observe during a run can be computed up front with
numpy, instead of updating ~20 registers per conditional branch in Python
(:meth:`FoldVector.push_bit`, the dominant Phase A cost).

The closed form exploits the :class:`~repro.common.history.FoldedRegister`
invariant (see ``GlobalHistory.fold_snapshot``): at all times

    value = XOR over ages a < length of  bit(age a) << (a % width)

which holds from attach (seeded via ``fold_snapshot``) and is preserved by
the update recurrence.  Writing the combined stream (pre-existing history
bits, then the pushed bits) as ``ext``, the bit ``r`` of the value after
``k`` pushes is the parity of a fixed-stride slice of ``ext`` — computable
for *all* ``k`` at once from per-residue prefix parities.  The series is
verified against the live register values at ``k == 0`` on construction,
so a violated invariant degrades to an error instead of silent skew.

:class:`BranchStream` packages the per-event arrays (conditional outcome
bits, indirect targets folded to :data:`INDIRECT_TARGET_BITS` bits) that
feed the plans, and :func:`path_series` gives the matching closed form for
:class:`~repro.common.history.PathHistory`.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from .history import INDIRECT_TARGET_BITS, GlobalHistory
from .foldvec import FoldVector

__all__ = ["BranchStream", "FoldPlan", "path_series"]

_IND_MASK = (1 << INDIRECT_TARGET_BITS) - 1


class BranchStream:
    """Per-event arrays of one trace's architectural branch stream.

    ``kind`` is 0 for conditional, 1 for indirect; ``val`` holds the taken
    bit (conditional) or the target address (indirect); ``pc`` the branch
    PC.  Events are in trace order.  The expanded history bit streams are
    built lazily and cached: :meth:`mixed` interleaves one bit per
    conditional with :data:`INDIRECT_TARGET_BITS` folded target bits per
    indirect (the ``GlobalHistory`` push stream); :meth:`cond_only` keeps
    just the conditional bits (predictors that never see indirects).
    """

    __slots__ = ("kind", "pc", "val", "n_events", "_mixed", "_cond", "_ind")

    def __init__(self, kind: np.ndarray, pc: np.ndarray,
                 val: np.ndarray) -> None:
        self.kind = kind
        self.pc = pc
        self.val = val
        self.n_events = int(kind.shape[0])
        self._mixed: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._cond: Optional[np.ndarray] = None
        self._ind: Optional[np.ndarray] = None

    def mixed(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(bits, offsets)``: the interleaved push stream and, per event,
        the number of bits pushed *before* that event."""
        if self._mixed is None:
            kind = self.kind
            lens = np.where(kind == 0, 1, INDIRECT_TARGET_BITS)
            ofs = np.cumsum(lens) - lens
            total = int(lens.sum())
            bits = np.zeros(total, dtype=np.int64)
            cond = kind == 0
            bits[ofs[cond]] = self.val[cond] & 1
            ind = ~cond
            if ind.any():
                targets = self.val[ind]
                # fold_bits(target, bit_length, 5) == fixed-chunk XOR, since
                # the all-zero high chunks contribute nothing.
                folded = np.zeros(targets.shape[0], dtype=np.int64)
                chunks = max(
                    1, -(-int(targets.max()).bit_length() //
                         INDIRECT_TARGET_BITS),
                )
                for c in range(chunks):
                    folded ^= (targets >> (c * INDIRECT_TARGET_BITS)) \
                        & _IND_MASK
                io = ofs[ind]
                for i in range(INDIRECT_TARGET_BITS):
                    bits[io + i] = (folded >> (
                        INDIRECT_TARGET_BITS - 1 - i)) & 1
            self._mixed = (bits, ofs)
        return self._mixed

    def cond_only(self) -> np.ndarray:
        """Conditional outcome bits only, in event order."""
        if self._cond is None:
            cond = self.kind == 0
            self._cond = (self.val[cond] & 1).astype(np.int64)
        return self._cond

    def ind_only(self) -> np.ndarray:
        """Folded target bits of indirect events only, MSB-first per event
        (the push stream of an ITTAGE's private history)."""
        if self._ind is None:
            targets = self.val[self.kind != 0]
            n = int(targets.shape[0])
            bits = np.zeros(n * INDIRECT_TARGET_BITS, dtype=np.int64)
            if n:
                folded = np.zeros(n, dtype=np.int64)
                chunks = max(
                    1, -(-int(targets.max()).bit_length() //
                         INDIRECT_TARGET_BITS),
                )
                for c in range(chunks):
                    folded ^= (targets >> (c * INDIRECT_TARGET_BITS)) \
                        & _IND_MASK
                for i in range(INDIRECT_TARGET_BITS):
                    bits[i::INDIRECT_TARGET_BITS] = (folded >> (
                        INDIRECT_TARGET_BITS - 1 - i)) & 1
            self._ind = bits
        return self._ind


class FoldPlan:
    """All fold-register values of a :class:`FoldVector` over a bit stream.

    ``series[slot][k]`` is the register value after the first ``k`` bits of
    ``pushed`` (``k == 0`` is the pre-stream state).  Construction verifies
    the ``k == 0`` column against the live register values and raises
    ``RuntimeError`` on mismatch; :meth:`for_history` turns that into None,
    and callers keep their incremental history path in that case.

    :meth:`finalize` advances the underlying :class:`FoldVector` to the
    post-stream state (values, ring bits, position) so the usual
    ``sync_back`` hand-off applies unchanged (:meth:`write_back` does
    both).
    """

    __slots__ = ("fv", "series", "_pushed")

    def __init__(self, fv: FoldVector, pushed: np.ndarray) -> None:
        self.fv = fv
        self._pushed = pushed
        n = int(pushed.shape[0])
        ring = np.asarray(fv._ring, dtype=np.int64)
        rmask = fv._ring_mask
        pos = fv._pos
        tracked = fv._ghist.max_bits
        ages = np.arange(tracked)
        init = ring[(pos - 1 - ages) & rmask][::-1]  # oldest first

        lengths = fv._lengths
        widths = fv._widths
        wmax = max(widths, default=1)
        pad = wmax + 8
        ext = np.concatenate(
            [np.zeros(pad, dtype=np.int64), init, pushed])
        base0 = pad + tracked - 1
        out_len = n + 1

        # Per-residue prefix parities, one table per distinct fold width.
        parity_by_width = {}
        series: List[np.ndarray] = []
        for i in range(len(lengths)):
            length = lengths[i]
            width = widths[i]
            if length == 0:
                series.append(np.full(out_len, fv.values[i], dtype=np.int64))
                continue
            pref = parity_by_width.get(width)
            if pref is None:
                tail = (-ext.shape[0]) % width
                padded = np.concatenate(
                    [ext, np.zeros(tail, dtype=np.int64)]) if tail else ext
                pref = np.bitwise_and(
                    np.cumsum(padded.reshape(-1, width), axis=0), 1).ravel()
                parity_by_width[width] = pref
            value = np.zeros(out_len, dtype=np.int64)
            for r in range(min(width, length)):
                span = width * ((length - 1 - r) // width + 1)
                hi = base0 - r
                lo = hi - span
                par = pref[hi:hi + out_len] ^ pref[lo:lo + out_len]
                value ^= par << r if r else par
            series.append(value)

        for i, col in enumerate(series):
            if int(col[0]) != fv.values[i]:
                raise RuntimeError(
                    "fold register out of sync with history bits "
                    f"(slot {i}: {int(col[0])} != {fv.values[i]})"
                )
        self.series = series

    @classmethod
    def for_history(cls, ghist: GlobalHistory,
                    pushed: np.ndarray) -> Optional["FoldPlan"]:
        """A plan over the registers of a live history, or None when they
        fail the invariant check (the caller keeps its incremental path)."""
        try:
            return cls(FoldVector(ghist), pushed)
        except RuntimeError:
            return None

    def column(self, length: int, width: int) -> np.ndarray:
        """The value series of the ``(length, width)`` register."""
        return self.series[self.fv.slot(length, width)]

    def write_back(self) -> None:
        """Bring the source history to its post-stream state."""
        self.finalize()
        self.fv.sync_back()

    def finalize(self) -> None:
        """Advance the FoldVector to the post-stream state."""
        fv = self.fv
        for i, col in enumerate(self.series):
            fv.values[i] = int(col[-1])
        pushed = self._pushed
        n = int(pushed.shape[0])
        ring = fv._ring
        rmask = fv._ring_mask
        pos = fv._pos
        start = max(0, n - (rmask + 1))
        base = pos + start
        for off, bit in enumerate(pushed[start:].tolist()):
            ring[(base + off) & rmask] = bit
        fv._pos = pos + n


def path_series(initial: int, width: int, bits_per_branch: int,
                chunks: np.ndarray) -> np.ndarray:
    """:class:`PathHistory` values before each of ``n`` pushes (length
    ``n + 1``; index 0 is ``initial``).

    ``chunks`` holds the per-event inserted chunk (``(pc >> 1) & mask``).
    The register is a plain shift-in window, so each value is an OR of the
    last ``ceil(width / bits_per_branch)`` chunks — including, for early
    events, the chunks of the initial value itself.
    """
    nb = -(-width // bits_per_branch)
    wmask = (1 << width) - 1
    bmask = (1 << bits_per_branch) - 1
    n = int(chunks.shape[0])
    init = np.array(
        [(initial >> (a * bits_per_branch)) & bmask
         for a in range(nb - 1, -1, -1)],
        dtype=np.int64,
    )
    ext = np.concatenate([init, chunks])
    values = np.zeros(n + 1, dtype=np.int64)
    base = nb - 1
    for m in range(nb):
        values |= ext[base - m:base - m + n + 1] << (m * bits_per_branch)
    return values & wmask

"""Vectorised fold-value series for a branch stream known ahead of time.

The batched engine replays the *architectural* branch-outcome stream, which
is a pure function of the trace — so every folded-history register value a
predictor will ever observe during a run can be computed up front with
numpy, instead of updating ~20 registers per conditional branch in Python
(``GlobalHistory.push_conditional``, the dominant Phase A cost).

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
feed the plans, :func:`prime_inputs` derives a ``prime`` call's arguments
from per-uop arrays, and :func:`path_series` gives the matching closed form
for :class:`~repro.common.history.PathHistory`.

Primed keys are handed out by :func:`primed_rows`, which turns compact
int32 key arrays into Python rows one block of :data:`ROW_BLOCK` at a
time, and :func:`check_consumed` makes a run that did not consume every
primed row fail loudly at ``finish``.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from ..trace.columns import OP_CODES
from ..trace.uop import OpClass
from .history import INDIRECT_TARGET_BITS, GlobalHistory

__all__ = ["BranchStream", "FoldPlan", "MAX_FOLD_WIDTH", "ROW_BLOCK",
           "check_consumed", "path_series", "prime_inputs", "primed_rows"]

_IND_MASK = (1 << INDIRECT_TARGET_BITS) - 1

_OP_LOAD = OP_CODES[OpClass.LOAD]
_OP_BC = OP_CODES[OpClass.BRANCH_COND]
_OP_BI = OP_CODES[OpClass.BRANCH_INDIRECT]

#: Widest fold register a plan accepts.  Series and key arrays are int32;
#: 30 bits leave room for the ``folded_tag2 << 1`` of the tag hash.
MAX_FOLD_WIDTH = 30

#: Loads (or branches) per block of primed rows materialised as Python ints.
ROW_BLOCK = 1024


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


def prime_inputs(op: np.ndarray, pc: np.ndarray, taken: np.ndarray,
                 target: np.ndarray
                 ) -> Tuple[BranchStream, np.ndarray, np.ndarray, np.ndarray]:
    """The arguments of ``MDPredictor.prime`` for one trace.

    ``op`` holds every micro-op's :data:`~repro.trace.columns.OP_CODES`
    code; ``pc``, ``taken`` and ``target`` are aligned with it and read
    only at branches (all three) and loads (``pc``).  Returns ``(stream,
    load_pc, cond_before, ind_before)``: the architectural branch stream,
    the load PCs in order, and the number of conditional / indirect
    branches before each load.
    """
    is_ind = op == _OP_BI
    bseqs = np.flatnonzero((op == _OP_BC) | is_ind)
    bkind = is_ind[bseqs].astype(np.int64)
    bval = np.where(bkind == 0, taken[bseqs].astype(np.int64),
                    target[bseqs].astype(np.int64))
    stream = BranchStream(bkind, pc[bseqs].astype(np.int64), bval)
    load_seqs = np.flatnonzero(op == _OP_LOAD)
    return (stream, pc[load_seqs].astype(np.int64),
            np.searchsorted(bseqs[bkind == 0], load_seqs),
            np.searchsorted(bseqs[bkind == 1], load_seqs))


def primed_rows(*groups: np.ndarray, block: int = ROW_BLOCK) -> Iterator:
    """One row per load (or branch) over a primed run's key arrays.

    Each group is a 1-D array (one int per row) or a 2-D ``(tables,
    rows)`` array (one tuple per row); a row is the tuple of its groups'
    items.  Rows become Python ints ``block`` at a time, so a run holds
    the compact arrays plus one block instead of every row.
    """
    n = int(groups[0].shape[-1])

    def rows():
        for lo in range(0, n, block):
            parts = [group[..., lo:lo + block].tolist() for group in groups]
            yield from zip(*[zip(*part) if group.ndim == 2 else part
                             for group, part in zip(groups, parts)])

    return rows()


def check_consumed(owner: str, rows: Iterator, primed: int) -> None:
    """Raise if a primed run left rows unconsumed.

    A run that primes more rows than it looks up would hand every later
    lookup of the next run the wrong keys; ``finish`` calls this after
    dropping its primed state so the mismatch is an error, not a skew.
    """
    left = sum(1 for _ in rows)
    if left:
        raise RuntimeError(
            f"{owner}: {primed - left} of {primed} primed "
            f"rows consumed, {left} left over (the run and its prime "
            "disagree on the event stream)"
        )


class FoldPlan:
    """All fold-register values of a :class:`GlobalHistory` over a bit stream.

    ``series[(length, width)][k]`` is that register's value after the first
    ``k`` bits of ``pushed`` (``k == 0`` is the pre-stream state).
    Construction reads the history bits and register values straight from
    ``ghist``, verifies the ``k == 0`` column against the live registers and
    raises ``RuntimeError`` on mismatch; :meth:`for_history` turns that into
    None, and callers keep their incremental history path in that case.
    Values are int32: a register wider than :data:`MAX_FOLD_WIDTH` raises
    ``ValueError``.

    :meth:`write_back` brings ``ghist`` to the post-stream state (register
    values and history bits), exactly as pushing ``pushed`` bit by bit
    would, so the predictor object's state after a primed run is
    indistinguishable from an incremental one.
    """

    __slots__ = ("ghist", "series", "_pushed")

    def __init__(self, ghist: GlobalHistory, pushed: np.ndarray) -> None:
        self.ghist = ghist
        self._pushed = pushed
        n = int(pushed.shape[0])
        tracked = ghist.max_bits
        # ghist.bits() is newest first; the closed form wants oldest first.
        init = np.asarray(ghist.bits(tracked)[::-1], dtype=np.int64)

        folds = ghist._folds
        wmax = max((width for _, width in folds), default=1)
        if wmax > MAX_FOLD_WIDTH:
            raise ValueError(
                f"fold width {wmax} exceeds the {MAX_FOLD_WIDTH}-bit int32 "
                "series of a FoldPlan"
            )
        pad = wmax + 8
        ext = np.concatenate(
            [np.zeros(pad, dtype=np.int64), init, pushed])
        base0 = pad + tracked - 1
        out_len = n + 1

        # Per-residue prefix parities, one table per distinct fold width.
        parity_by_width = {}
        series: Dict[Tuple[int, int], np.ndarray] = {}
        for (length, width), reg in folds.items():
            if length == 0:
                series[(length, width)] = np.full(out_len, reg.value,
                                                  dtype=np.int32)
                continue
            pref = parity_by_width.get(width)
            if pref is None:
                tail = (-ext.shape[0]) % width
                padded = np.concatenate(
                    [ext, np.zeros(tail, dtype=np.int64)]) if tail else ext
                pref = np.bitwise_and(np.cumsum(
                    padded.reshape(-1, width), axis=0, dtype=np.int32),
                    1).ravel()
                parity_by_width[width] = pref
            value = np.zeros(out_len, dtype=np.int32)
            for r in range(min(width, length)):
                span = width * ((length - 1 - r) // width + 1)
                hi = base0 - r
                lo = hi - span
                par = pref[hi:hi + out_len] ^ pref[lo:lo + out_len]
                value ^= par << r if r else par
            series[(length, width)] = value

        for key, col in series.items():
            if int(col[0]) != folds[key].value:
                raise RuntimeError(
                    "fold register out of sync with history bits "
                    f"({key}: {int(col[0])} != {folds[key].value})"
                )
        self.series = series

    @classmethod
    def for_history(cls, ghist: GlobalHistory,
                    pushed: np.ndarray) -> Optional["FoldPlan"]:
        """A plan over the registers of a live history, or None when they
        fail the invariant check (the caller keeps its incremental path)."""
        try:
            return cls(ghist, pushed)
        except RuntimeError:
            return None

    def column(self, length: int, width: int) -> np.ndarray:
        """The value series of the ``(length, width)`` register."""
        return self.series[(length, width)]

    def write_back(self) -> None:
        """Bring the source history to its post-stream state."""
        ghist = self.ghist
        folds = ghist._folds
        for key, col in self.series.items():
            folds[key].value = int(col[-1])
        # extendleft pushes in stream order (the last bit ends up newest)
        # and the deque's maxlen drops the evicted oldest bits.
        ghist._bits.extendleft(self._pushed[-ghist.max_bits:].tolist())


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

"""Columnar (struct-of-arrays) view of a micro-op trace.

The batched engine (:mod:`repro.core.batched`) does not iterate
:class:`~repro.trace.uop.MicroOp` objects on its hot path; it consumes
per-field numpy columns precomputed once per trace.  :class:`TraceColumns`
is that view: one array per scalar field, with ``-1`` sentinels standing in
for ``None`` (``addr_src``, ``dep_store_seq``) and small integer codes for
the two enums.

The columns are derived data — they add no information beyond the trace —
so they are memoised by *identity* in a small bounded cache
(:func:`TraceColumns.ensure`).  Identity keying is safe because the
experiment harness holds traces in :class:`repro.experiments.runner.TraceCache`
for the life of the process; it also means a mutated trace list produces a
fresh column set rather than a stale one only if the caller rebuilds the
list object, which matches how traces are treated everywhere else
(immutable once generated).
"""

from __future__ import annotations

from operator import attrgetter
from typing import List, Sequence, Tuple

import numpy as np

from .uop import BypassClass, MicroOp, OpClass

__all__ = ["OP_CODES", "OP_BY_CODE", "BYPASS_CODES", "BYPASS_BY_CODE",
           "TraceColumns"]

#: Stable integer codes for :class:`OpClass`, ordered by enum definition.
OP_CODES = {op: i for i, op in enumerate(OpClass)}
OP_BY_CODE = tuple(OpClass)

#: Stable integer codes for :class:`BypassClass`.
BYPASS_CODES = {bc: i for i, bc in enumerate(BypassClass)}
BYPASS_BY_CODE = tuple(BypassClass)

#: Bounded identity-keyed memo: list of (trace, columns) pairs, newest last.
#: Safe across pool workers: a columnisation is a pure function of the
#: trace it is keyed on, so per-worker copies can only agree.
_MEMO_CAPACITY = 4
# repro-lint: allow(conc-mutable-global) -- identity-keyed memo of pure columnisations
_MEMO: List[Tuple[Sequence[MicroOp], "TraceColumns"]] = []


def _seq_or_sentinel(seq):
    """An optional sequence number as a column value (``None`` -> -1)."""
    return -1 if seq is None else seq


class TraceColumns:
    """Numpy columns for one trace, plus cached plain-list views.

    The numpy arrays serve vectorised work (prime inputs,
    measured-count reductions); the ``.lists()`` views serve the
    per-uop timing loop, where native ``int`` elements avoid the cost of
    materialising ``np.int64`` scalars on every read.
    """

    __slots__ = (
        "n", "op", "pc", "address", "size", "taken", "target",
        "addr_src", "dep_store_seq", "store_distance", "bypass",
        "src_count", "srcs", "_lists",
    )

    def __init__(self, trace: Sequence[MicroOp]) -> None:
        n = len(trace)
        self.n = n

        def column(name: str, dtype, code=None) -> np.ndarray:
            values = map(attrgetter(name), trace)
            if code is not None:
                values = map(code, values)
            return np.fromiter(values, dtype=dtype, count=n)

        self.op = column("op", np.int8, OP_CODES.__getitem__)
        self.pc = column("pc", np.int64)
        self.address = column("address", np.int64)
        self.size = column("size", np.int32)
        self.taken = column("taken", np.bool_)
        self.target = column("target", np.int64)
        self.addr_src = column("addr_src", np.int64, _seq_or_sentinel)
        self.dep_store_seq = column("dep_store_seq", np.int64,
                                    _seq_or_sentinel)
        self.store_distance = column("store_distance", np.int32)
        self.bypass = column("bypass", np.int8, BYPASS_CODES.__getitem__)
        self.srcs: List[Tuple[int, ...]] = [uop.srcs for uop in trace]
        self.src_count = np.fromiter(map(len, self.srcs), dtype=np.int16,
                                     count=n)
        self._lists = None

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_trace(cls, trace: Sequence[MicroOp]) -> "TraceColumns":
        """Build columns without touching the memo."""
        return cls(trace)

    @classmethod
    def ensure(cls, trace: Sequence[MicroOp]) -> "TraceColumns":
        """Return (building if necessary) the memoised columns for ``trace``.

        The memo is identity-keyed and holds at most ``_MEMO_CAPACITY``
        traces; the eldest entry is dropped on overflow.
        """
        for i, (cached_trace, cols) in enumerate(_MEMO):
            if cached_trace is trace:
                if i != len(_MEMO) - 1:  # keep MRU at the tail
                    _MEMO.append(_MEMO.pop(i))
                return cols
        cols = cls(trace)
        _MEMO.append((trace, cols))
        if len(_MEMO) > _MEMO_CAPACITY:
            _MEMO.pop(0)
        return cols

    @classmethod
    def clear_memo(cls) -> None:
        _MEMO.clear()

    # -- views -----------------------------------------------------------------

    def lists(self):
        """Plain-list views of the scalar columns (cached).

        Returns a dict of column name -> list of native python ints/bools.
        The timing loop indexes these instead of the numpy arrays: list
        indexing yields interned small ints rather than ``np.int64``
        scalars, which would otherwise contaminate downstream arithmetic
        and slow every operation on the hot path.
        """
        if self._lists is None:
            self._lists = {
                "op": self.op.tolist(),
                "pc": self.pc.tolist(),
                "address": self.address.tolist(),
                "size": self.size.tolist(),
                "taken": self.taken.tolist(),
                "target": self.target.tolist(),
                "addr_src": self.addr_src.tolist(),
                "dep_store_seq": self.dep_store_seq.tolist(),
                "store_distance": self.store_distance.tolist(),
                "bypass": self.bypass.tolist(),
                "src_count": self.src_count.tolist(),
            }
        return self._lists

    # -- reconstruction (testing aid) ------------------------------------------

    def uop_fields(self, seq: int) -> dict:
        """Scalar fields of uop ``seq`` decoded back to python values."""
        addr_src = int(self.addr_src[seq])
        dep = int(self.dep_store_seq[seq])
        return {
            "seq": seq,
            "pc": int(self.pc[seq]),
            "op": OP_BY_CODE[int(self.op[seq])],
            "srcs": self.srcs[seq],
            "taken": bool(self.taken[seq]),
            "target": int(self.target[seq]),
            "address": int(self.address[seq]),
            "size": int(self.size[seq]),
            "addr_src": None if addr_src < 0 else addr_src,
            "store_distance": int(self.store_distance[seq]),
            "dep_store_seq": None if dep < 0 else dep,
            "bypass": BYPASS_BY_CODE[int(self.bypass[seq])],
        }

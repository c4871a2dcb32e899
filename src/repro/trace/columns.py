"""Columnar (struct-of-arrays) form of a micro-op trace.

The columns *are* the trace.  :class:`~repro.trace.generator.TraceGenerator`
writes every field straight into typed column buffers and returns a
:class:`Trace`: a ``Sequence[MicroOp]`` whose :attr:`Trace.columns` is the
generated :class:`TraceColumns` and whose :class:`~repro.trace.uop.MicroOp`
objects are a lazy view, built once on first object access.  Only the
scalar reference engine, :func:`~repro.trace.validate.validate_trace`,
trace files (:mod:`repro.trace.stream`) and tests ever touch that view;
the batched engine, the prediction-only replay and sampling read the
columns, and sampled regions are column slices
(:func:`repro.sampling.reconstruct.rebase_interval`).

:class:`TraceColumns` holds one machine-typed array per scalar field, with
``-1`` sentinels standing in for ``None`` (``addr_src``, ``dep_store_seq``)
and small integer codes for the two enums.  Nothing it holds is a Python
object per micro-op.  Sequence-valued columns are ``int32``, so a trace
holds at most :data:`MAX_UOPS` (``2**31 - 1``) micro-ops.

Dataflow sources are one ``(n, width)`` ``int32`` matrix, ``srcs``: row
``i`` lists micro-op ``i``'s sources in order, left-aligned and padded
with ``-1``.  ``width`` is :data:`SRC_SLOTS` (3, the most the generator
emits) or, for a hand-built trace with a wider micro-op, that micro-op's
source count, so any ``MicroOp.srcs`` round-trips.  The batched engine
reads the padded columns unrolled; :meth:`TraceColumns.src_tuples`
decodes the rows back to tuples for the object view.

:meth:`TraceColumns.ensure` returns a :class:`Trace`'s own columns without
a copy.  A hand-built list of micro-ops is columnised on demand and
memoised by *identity* in a small bounded cache; identity keying is safe
because traces are treated as immutable once built, so a changed list
must be a new list object.
"""

from __future__ import annotations

from collections.abc import Sequence as SequenceABC
from operator import attrgetter
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .uop import BypassClass, MicroOp, OpClass

__all__ = ["OP_CODES", "OP_BY_CODE", "BYPASS_CODES", "BYPASS_BY_CODE",
           "MAX_UOPS", "SRC_SLOTS", "Trace", "TraceColumns"]

#: Stable integer codes for :class:`OpClass`, ordered by enum definition.
OP_CODES = {op: i for i, op in enumerate(OpClass)}
OP_BY_CODE = tuple(OpClass)

#: Stable integer codes for :class:`BypassClass`.
BYPASS_CODES = {bc: i for i, bc in enumerate(BypassClass)}
BYPASS_BY_CODE = tuple(BypassClass)

_OP_LOAD = OP_CODES[OpClass.LOAD]
_OP_STORE = OP_CODES[OpClass.STORE]
_BYPASS_NONE = BYPASS_CODES[BypassClass.NONE]

#: Column name -> dtype, in :class:`~repro.trace.uop.MicroOp` field order
#: (``srcs`` is a padded ``int32`` matrix, see the module docstring).
COLUMN_DTYPES = {
    "pc": np.int64,
    "op": np.int8,
    "taken": np.bool_,
    "target": np.int64,
    "address": np.int64,
    "size": np.int32,
    "addr_src": np.int32,
    "store_distance": np.int32,
    "dep_store_seq": np.int32,
    "bypass": np.int8,
}

#: Minimum width of the ``srcs`` matrix: the generator emits at most
#: three sources per micro-op.
SRC_SLOTS = 3

#: Sequence numbers are stored as ``int32``.
MAX_UOPS = 2**31 - 1

#: Micro-ops per invariant-check chunk.
_CHECK_CHUNK = 1 << 13

#: Bounded identity-keyed memo: list of (trace, columns) pairs, newest last.
#: Safe across pool workers: a columnisation is a pure function of the
#: trace it is keyed on, so per-worker copies can only agree.
_MEMO_CAPACITY = 4
# repro-lint: allow(conc-mutable-global) -- identity-keyed memo of pure columnisations
_MEMO: List[Tuple[Sequence[MicroOp], "TraceColumns"]] = []


def _seq_or_sentinel(seq):
    """An optional sequence number as a column value (``None`` -> -1)."""
    return -1 if seq is None else seq


def pack_srcs(rows: Sequence[Sequence[int]]) -> np.ndarray:
    """Source tuples as the padded ``(n, width)`` ``int32`` matrix."""
    width = max(SRC_SLOTS, max(map(len, rows), default=0))
    pad = (-1,) * width
    matrix = np.array([(*row, *pad)[:width] for row in rows],
                      dtype=np.int32).reshape(len(rows), width)
    if np.count_nonzero(matrix >= 0) != sum(map(len, rows)):
        raise ValueError("dataflow sources must be non-negative sequence "
                         "numbers")
    return matrix


def left_align_srcs(matrix: np.ndarray) -> np.ndarray:
    """A source matrix whose rows may have ``-1`` holes, with each row's
    sources moved left (order kept) and the all-padding columns beyond
    :data:`SRC_SLOTS` dropped."""
    order = np.argsort(matrix < 0, axis=1, kind="stable")
    packed = np.take_along_axis(matrix, order, axis=1)
    width = max(SRC_SLOTS,
                int(np.count_nonzero(packed >= 0, axis=1).max(initial=0)))
    return np.ascontiguousarray(packed[:, :width])


class TraceColumns:
    """Numpy columns for one trace, plus plain-list views on demand.

    The numpy arrays serve vectorised work (prime inputs,
    measured-count reductions, region slicing); the :meth:`lists` views
    serve the per-uop loops, where native ``int`` elements avoid the
    cost of materialising ``np.int64`` scalars on every read.

    ``TraceColumns(trace)`` columnises a sequence of micro-op objects;
    :meth:`from_arrays` wraps columns built directly (the generator,
    region slices).  Micro-op ``i`` has sequence number ``first_seq + i``;
    ``first_seq`` is non-zero only for slices rebased after an offset,
    which are stitched into another trace rather than run on their own.
    ``srcs`` is the padded source matrix described in the module
    docstring.
    """

    __slots__ = (
        "n", "first_seq", "op", "pc", "address", "size", "taken", "target",
        "addr_src", "dep_store_seq", "store_distance", "bypass", "srcs",
    )

    def __init__(self, trace: Sequence[MicroOp]) -> None:
        n = len(trace)

        def column(name: str, code=None) -> np.ndarray:
            values = map(attrgetter(name), trace)
            if code is not None:
                values = map(code, values)
            return np.fromiter(values, dtype=COLUMN_DTYPES[name], count=n)

        self._assign(
            pack_srcs([uop.srcs for uop in trace]),
            op=column("op", OP_CODES.__getitem__),
            pc=column("pc"),
            address=column("address"),
            size=column("size"),
            taken=column("taken"),
            target=column("target"),
            addr_src=column("addr_src", _seq_or_sentinel),
            dep_store_seq=column("dep_store_seq", _seq_or_sentinel),
            store_distance=column("store_distance"),
            bypass=column("bypass", BYPASS_CODES.__getitem__),
        )

    def _assign(self, srcs: np.ndarray, first_seq: int = 0,
                **columns) -> None:
        srcs = np.asarray(srcs, dtype=np.int32)
        n = len(srcs)
        if srcs.ndim != 2 or srcs.shape[1] < SRC_SLOTS:
            raise ValueError(f"srcs has shape {srcs.shape}, expected "
                             f"({n}, >={SRC_SLOTS})")
        if first_seq + n > MAX_UOPS:
            raise ValueError(f"{first_seq + n} sequence numbers exceed the "
                             f"int32 columns' {MAX_UOPS}")
        self.srcs = srcs
        self.n = n
        self.first_seq = first_seq
        for name, dtype in COLUMN_DTYPES.items():
            values = np.asarray(columns[name], dtype=dtype)
            if values.shape != (n,):
                raise ValueError(f"column {name!r} has shape {values.shape}, "
                                 f"expected ({n},)")
            setattr(self, name, values)

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_trace(cls, trace: Sequence[MicroOp]) -> "TraceColumns":
        """Columnise micro-op objects without touching the memo."""
        return cls(trace)

    @classmethod
    def from_arrays(cls, srcs: np.ndarray, first_seq: int = 0,
                    **columns) -> "TraceColumns":
        """Wrap columns built directly: the padded source matrix and one
        array (or list) per name in :data:`COLUMN_DTYPES`, with the ``-1``
        / code conventions.  Arrays of the right dtype are not copied."""
        self = cls.__new__(cls)
        self._assign(srcs, first_seq, **columns)
        return self

    @classmethod
    def ensure(cls, trace: Sequence[MicroOp]) -> "TraceColumns":
        """The columns of ``trace``: a :class:`Trace`'s own, without a
        copy; for any other sequence the memoised columnisation.

        The memo is identity-keyed and holds at most ``_MEMO_CAPACITY``
        hand-built traces; the eldest entry is dropped on overflow.
        """
        if isinstance(trace, Trace):
            return trace.columns
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

    def equals(self, other: "TraceColumns") -> bool:
        """Whether both column sets describe the same micro-ops."""
        return (self.n == other.n and self.first_seq == other.first_seq
                and np.array_equal(self.srcs, other.srcs)
                and all(np.array_equal(getattr(self, name),
                                       getattr(other, name))
                        for name in COLUMN_DTYPES))

    @property
    def nbytes(self) -> int:
        """Bytes spanned by the column arrays."""
        return self.srcs.nbytes + sum(getattr(self, name).nbytes
                                      for name in COLUMN_DTYPES)

    # -- invariants ------------------------------------------------------------

    def check_invariants(self) -> None:
        """Every :meth:`MicroOp.__post_init__ <repro.trace.uop.MicroOp>`
        invariant, checked vectorised.

        Raises ``ValueError`` naming the first offending micro-op, with the
        message its object constructor would raise.  The trace is checked
        in chunks of :data:`_CHECK_CHUNK` micro-ops, so the masks add a
        bounded amount to a trace's footprint however long it is.
        """
        for lo in range(0, self.n, _CHECK_CHUNK):
            self._check_chunk(lo, min(lo + _CHECK_CHUNK, self.n))

    def _check_chunk(self, lo: int, hi: int) -> None:
        """:meth:`check_invariants` over micro-ops ``lo`` to ``hi``."""
        op = self.op[lo:hi]
        distance = self.store_distance[lo:hi]
        is_load = op == _OP_LOAD
        has_dep = self.bypass[lo:hi] != _BYPASS_NONE
        dep_set = self.dep_store_seq[lo:hi] >= 0
        checks = (
            ((is_load | (op == _OP_STORE)) & (self.size[lo:hi] <= 0),
             "memory op {seq} needs a positive size"),
            (is_load & (has_dep != (distance > 0)),
             "load {seq}: bypass class {bypass} inconsistent with "
             "store_distance {distance}"),
            (is_load & has_dep & ~dep_set,
             "load {seq}: dependence without dep_store_seq"),
            (is_load & ~has_dep & dep_set,
             "load {seq}: dep_store_seq {dep} set but bypass class "
             "{bypass_value} is a non-dependence"),
            (~is_load & dep_set, "{op} {seq}: dep_store_seq on a non-load"),
            (~is_load & (distance != 0),
             "{op} {seq}: store_distance on a non-load"),
            (~is_load & has_dep,
             "{op} {seq}: bypass class {bypass_value} on a non-load"),
        )
        # The first offending micro-op, and its first failing check in
        # the constructor's order.
        bad = [(lo + int(np.flatnonzero(mask)[0]), order, message)
               for order, (mask, message) in enumerate(checks) if mask.any()]
        if bad:
            i, _, message = min(bad)
            bypass = BYPASS_BY_CODE[int(self.bypass[i])]
            raise ValueError(message.format(
                seq=self.first_seq + i, op=OP_BY_CODE[int(self.op[i])].value,
                bypass=bypass, bypass_value=bypass.value,
                distance=int(self.store_distance[i]),
                dep=int(self.dep_store_seq[i])))

    # -- views -----------------------------------------------------------------

    def lists(self, names: Sequence[str] = tuple(COLUMN_DTYPES)):
        """Plain-list views of the named scalar columns (default: all).

        Returns a fresh dict of column name -> list of native python
        ints/bools.  The per-uop loops
        index these instead of the numpy arrays: list indexing yields
        interned small ints rather than ``np.int64`` scalars, which would
        otherwise contaminate downstream arithmetic and slow every
        operation on the hot path.  Nothing is cached: a caller holds the
        views for one run, so a trace kept for later cells does not also
        keep a second, list-shaped copy of itself.
        """
        return {name: getattr(self, name).tolist() for name in names}

    def src_tuples(self) -> List[Tuple[int, ...]]:
        """Each micro-op's sources as a tuple, padding dropped."""
        counts = np.count_nonzero(self.srcs >= 0, axis=1).tolist()
        return [tuple(row[:count])
                for row, count in zip(self.srcs.tolist(), counts)]

    def uops(self) -> List[MicroOp]:
        """The micro-op objects these columns describe, built fresh."""
        lists = self.lists()
        op_by_code = OP_BY_CODE
        bypass_by_code = BYPASS_BY_CODE
        return [
            MicroOp(seq, pc, op_by_code[op], srcs, taken, target, address,
                    size, None if addr_src < 0 else addr_src, distance,
                    None if dep < 0 else dep, bypass_by_code[bypass])
            for seq, (pc, op, srcs, taken, target, address, size, addr_src,
                      distance, dep, bypass) in enumerate(zip(
                          lists["pc"], lists["op"], self.src_tuples(),
                          lists["taken"], lists["target"], lists["address"],
                          lists["size"], lists["addr_src"],
                          lists["store_distance"], lists["dep_store_seq"],
                          lists["bypass"]), self.first_seq)
        ]

    # -- reconstruction (testing aid) ------------------------------------------

    def uop_fields(self, seq: int) -> dict:
        """Scalar fields of the micro-op at position ``seq`` decoded back
        to python values."""
        addr_src = int(self.addr_src[seq])
        dep = int(self.dep_store_seq[seq])
        return {
            "seq": self.first_seq + seq,
            "pc": int(self.pc[seq]),
            "op": OP_BY_CODE[int(self.op[seq])],
            "srcs": tuple(s for s in self.srcs[seq].tolist() if s >= 0),
            "taken": bool(self.taken[seq]),
            "target": int(self.target[seq]),
            "address": int(self.address[seq]),
            "size": int(self.size[seq]),
            "addr_src": None if addr_src < 0 else addr_src,
            "store_distance": int(self.store_distance[seq]),
            "dep_store_seq": None if dep < 0 else dep,
            "bypass": BYPASS_BY_CODE[int(self.bypass[seq])],
        }


class Trace(SequenceABC):
    """A trace held as its columns; micro-op objects are a lazy view.

    :attr:`columns` is the trace.  Indexing or iterating builds the
    :class:`~repro.trace.uop.MicroOp` list once (validated object by
    object, like any other micro-op) and keeps it; :attr:`materialized`
    says whether that has happened.  Consumers that only need columns
    call :meth:`TraceColumns.ensure` and never pay for objects.
    """

    __slots__ = ("columns", "_uops")

    def __init__(self, columns: TraceColumns) -> None:
        self.columns = columns
        self._uops: Optional[List[MicroOp]] = None

    @property
    def materialized(self) -> bool:
        """Whether the micro-op objects have been built."""
        return self._uops is not None

    @property
    def uops(self) -> List[MicroOp]:
        """The micro-op objects, built on first access."""
        if self._uops is None:
            self._uops = self.columns.uops()
        return self._uops

    def __len__(self) -> int:
        return self.columns.n

    def __getitem__(self, index):
        return self.uops[index]

    def __iter__(self):
        return iter(self.uops)

    def __eq__(self, other):
        if isinstance(other, Trace):
            return self.columns.equals(other.columns)
        if isinstance(other, (list, tuple)):
            return self.uops == list(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        state = "materialized" if self.materialized else "columns only"
        return f"<Trace of {self.columns.n} micro-ops, {state}>"

"""Generic set-associative tagged tables for TAGE-like MDP predictors.

MASCOT and PHAST share the same storage organisation (Sec. IV-B / Table II):
an array of tables with increasing global-history lengths, each 4-way
set-associative, indexed and tagged by folds of the load PC, the global
branch/path history.  This module provides that machinery once; the
predictors differ only in entry contents and allocation/update policy.

Keys have two sources with bit-identical values (property-tested):

* the **reference path** — :meth:`TaggedTable.key` over the incrementally
  folded :class:`~repro.common.history.GlobalHistory` registers, updated by
  every branch event;
* the **primed path** — :meth:`TableBank.prime` computes every load's keys
  of a whole run at once with numpy, from the closed-form fold series of
  :class:`~repro.common.foldplan.FoldPlan`, and :meth:`TableBank.finish`
  writes the final history state back.  The batched engine and the
  prediction-only replay prime; the scalar pipeline never does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any, Generic, Iterator, List, Optional, Sequence, Tuple, TypeVar,
)

import numpy as np

from ..common.bitops import mask
from ..common.foldplan import (
    BranchStream,
    FoldPlan,
    check_consumed,
    path_series,
    primed_rows,
)
from ..common.hashing import (
    table_index,
    table_index_array,
    table_tag,
    table_tag_array,
)
from ..common.history import GlobalHistory, PathHistory
from .base import MDPredictor, PredictorSizing

__all__ = ["TableKey", "TaggedTable", "TableBank", "TableBankPredictor",
           "BankKeys"]

#: Per-table set indices and tags of one load, in table order.
BankKeys = Tuple[Tuple[int, ...], Tuple[int, ...]]


@dataclass(frozen=True)
class TableKey:
    """Predict-time (set index, tag) pair for one table.

    Computed under the history in effect at prediction time and carried in
    the prediction's metadata so commit-time training addresses the same
    entries hardware would (the instruction payload carries the same bits).
    """

    index: int
    tag: int


E = TypeVar("E")


class TaggedTable(Generic[E]):
    """One history length's worth of storage: sets × ways of entries.

    The table does not interpret entries; predictors supply an entry factory
    and decide validity/replacement.  ``None`` marks an empty way.
    """

    def __init__(
        self,
        table_number: int,
        history_length: int,
        num_entries: int,
        ways: int,
        tag_bits: int,
        ghist: GlobalHistory,
        path: Optional[PathHistory] = None,
    ):
        if num_entries <= 0 or ways <= 0:
            raise ValueError("table geometry must be positive")
        if num_entries % ways:
            raise ValueError(
                f"table {table_number}: {num_entries} entries not divisible "
                f"by {ways} ways"
            )
        self.table_number = table_number
        self.history_length = history_length
        self.num_entries = num_entries
        self.ways = ways
        self.tag_bits = tag_bits
        self.num_sets = num_entries // ways
        # A single-set table has index width 0 (every lookup hits set 0).
        self.index_bits = (self.num_sets - 1).bit_length()
        if (1 << self.index_bits) != self.num_sets:
            raise ValueError(
                f"table {table_number}: {self.num_sets} sets is not a power of two"
            )
        self._path = path
        # History folds; length-0 tables have no history contribution and a
        # single-set table (index width 0) needs no index fold.
        if history_length > 0:
            self._index_fold = (
                ghist.attach_fold(history_length, self.index_bits)
                if self.index_bits > 0 else None
            )
            self._tag_fold = ghist.attach_fold(history_length, tag_bits)
            self._tag_fold2 = ghist.attach_fold(
                history_length, max(tag_bits - 1, 1)
            )
        else:
            self._index_fold = None
            self._tag_fold = None
            self._tag_fold2 = None
        self._sets: List[List[Optional[E]]] = [
            [None] * ways for _ in range(self.num_sets)
        ]

    # -- key computation -------------------------------------------------------

    def key(self, pc: int) -> TableKey:
        """Compute this table's (index, tag) for a PC under current history."""
        folded_index = self._index_fold.value if self._index_fold else 0
        folded_tag = self._tag_fold.value if self._tag_fold else 0
        folded_tag2 = self._tag_fold2.value if self._tag_fold2 else 0
        path_value = 0
        if self._path is not None and self.history_length > 0:
            path_value = self._path.value & mask(
                min(self.history_length, self._path.width)
            )
        index = table_index(
            pc, self.index_bits, folded_index,
            path_history=path_value, table_number=self.table_number,
        )
        tag = table_tag(pc, self.tag_bits, folded_tag, folded_tag2)
        return TableKey(index, tag)

    # -- storage access ----------------------------------------------------------

    def ways_at(self, index: int) -> List[Optional[E]]:
        """The (mutable) list of ways of one set."""
        return self._sets[index]

    def write(self, index: int, way: int, entry: Optional[E]) -> None:
        self._sets[index][way] = entry

    def entries(self):
        """Iterate ``(index, way, entry)`` over occupied slots."""
        for index, ways in enumerate(self._sets):
            for way, entry in enumerate(ways):
                if entry is not None:
                    yield index, way, entry

    def occupancy(self) -> int:
        return sum(1 for _ in self.entries())

    def clear(self) -> None:
        # In place: the owning bank keeps a reference to ``_sets``.
        for ways in self._sets:
            ways[:] = [None] * self.ways


class TableBank:
    """The full array of tagged tables plus the shared history registers.

    ``history_lengths`` must be non-decreasing with table number, with table
    0 traditionally using zero history (indexed by PC alone).
    """

    def __init__(
        self,
        history_lengths: Sequence[int],
        table_entries: Sequence[int],
        tag_bits: Sequence[int],
        ways: int = 4,
        path_bits: int = 16,
    ):
        if not history_lengths:
            raise ValueError("need at least one table")
        if not (len(history_lengths) == len(table_entries) == len(tag_bits)):
            raise ValueError("per-table parameter lists must align")
        if list(history_lengths) != sorted(history_lengths):
            raise ValueError("history lengths must be non-decreasing")
        self.history_lengths = tuple(history_lengths)
        self.ghist = GlobalHistory(max_bits=max(max(history_lengths), 1) + 8)
        self.path = PathHistory(width=path_bits)
        self.tables: List[TaggedTable] = [
            TaggedTable(
                table_number=t,
                history_length=history_lengths[t],
                num_entries=table_entries[t],
                ways=ways,
                tag_bits=tag_bits[t],
                ghist=self.ghist,
                path=self.path,
            )
            for t in range(len(history_lengths))
        ]
        self.num_tables = len(self.tables)
        # Per-table set storage, and the longest-history-first match order.
        self._sets = [table._sets for table in self.tables]
        self._match_order = tuple(range(len(self.tables) - 1, -1, -1))
        # Primed run state (see prime/finish): the key rows, and the fold
        # plan plus final path value; None on the reference path.
        self._rows: Optional[Iterator[BankKeys]] = None
        self._plan: Optional[Tuple[FoldPlan, int]] = None
        self._primed = 0

    def __len__(self) -> int:
        return self.num_tables

    def __getitem__(self, table: int) -> TaggedTable:
        return self.tables[table]

    def keys(self, pc: int) -> Tuple[TableKey, ...]:
        """Reference keys for all tables under the current history."""
        return tuple(table.key(pc) for table in self.tables)

    def reference_keys(self, pc: int) -> BankKeys:
        """:meth:`keys` as ``(indices, tags)``."""
        keys = self.keys(pc)
        return (tuple(key.index for key in keys),
                tuple(key.tag for key in keys))

    def lookup(self, pc: Optional[int], keys: Optional[BankKeys] = None
               ) -> Tuple[BankKeys, Optional[int], Any]:
        """A load's keys and longest-history tag match: ``(keys, table,
        entry)``, with Nones for no match.

        The keys are the load's primed row after :meth:`prime`, else the
        :meth:`reference_keys` of ``pc``; pass ``keys`` instead to repeat
        the match for a load already looked up (commit time).
        """
        if keys is None:
            rows = self._rows
            keys = next(rows) if rows is not None else self.reference_keys(pc)
        indices, tags = keys
        sets = self._sets
        for t in self._match_order:
            tag = tags[t]
            for entry in sets[t][indices[t]]:
                if entry is not None and entry.tag == tag:
                    return keys, t, entry
        return keys, None, None

    def find(self, table: Optional[int], indices: Sequence[int],
             tags: Sequence[int]) -> Any:
        """The entry tagged ``tags[table]`` in its set, or None."""
        if table is None:
            return None
        tag = tags[table]
        for entry in self._sets[table][indices[table]]:
            if entry is not None and entry.tag == tag:
                return entry
        return None

    # -- whole-run key precomputation ----------------------------------------

    def prime(self, stream: BranchStream, load_pc: np.ndarray,
              cond_before: np.ndarray, ind_before: np.ndarray) -> bool:
        """Precompute every load's keys for one run, vectorised.

        ``load_pc`` / ``cond_before`` / ``ind_before`` describe the run's
        loads in order (PC and the number of conditional / indirect branch
        events preceding each).  Afterwards :meth:`lookup` takes one
        primed row per load and the branch hooks leave the history alone
        until :meth:`finish`.  Declines — keeping the reference path and
        returning False — if the fold-register invariant check fails.
        """
        plan = FoldPlan.for_history(self.ghist, stream.mixed()[0])
        if plan is None:
            return False

        # Path history: closed-form series over all branch events, read at
        # each load's position, folded per table exactly like fold_bits.
        path_width = self.path.width
        bits_per_branch = self.path._bits_per_branch
        chunks = (stream.pc >> 1) & mask(bits_per_branch)
        path = path_series(self.path.value, path_width, bits_per_branch,
                           chunks)
        path_at_load = path[cond_before + ind_before]
        k_push = cond_before + 5 * ind_before

        # One int32 row of keys per table, filled table by table.
        indices = np.empty((self.num_tables, load_pc.shape[0]), np.int32)
        tags = np.empty_like(indices)
        for table in self.tables:
            ib = table.index_bits
            tb = table.tag_bits
            hl = table.history_length
            if hl == 0:
                # PC-only table: no history or path contribution.
                index = table_index_array(load_pc, ib, 0,
                                          table_number=table.table_number)
                tag = table_tag_array(load_pc, tb, 0)
            else:
                width = min(hl, path_width)
                path_fold = 0
                if ib > 0:
                    p = path_at_load & mask(width)
                    path_fold = p & mask(ib)
                    for c in range(1, -(-width // ib)):
                        path_fold = path_fold ^ ((p >> (c * ib)) & mask(ib))
                index = table_index_array(
                    load_pc, ib,
                    plan.column(hl, ib)[k_push] if ib > 0 else 0,
                    path_fold, table.table_number)
                tag = table_tag_array(load_pc, tb,
                                      plan.column(hl, tb)[k_push],
                                      plan.column(hl, max(tb - 1, 1))[k_push])
            indices[table.table_number] = index
            tags[table.table_number] = tag
        self._plan = (plan, int(path[-1]))
        self._primed = int(load_pc.shape[0])
        self._rows = primed_rows(indices, tags)
        return True

    def finish(self, owner: str) -> None:
        """Advance the history to the end of a primed run and drop the
        rows; raises ``RuntimeError`` naming ``owner`` if any primed row
        went unused."""
        if self._plan is None:
            return
        plan, self.path.value = self._plan
        plan.write_back()
        rows, primed = self._rows, self._primed
        self._plan = None
        self._rows = None
        self._primed = 0
        check_consumed(owner, rows, primed)

    # -- history updates -----------------------------------------------------

    def on_branch(self, pc: int, taken: bool) -> None:
        if self._plan is None:
            self.ghist.push_conditional(taken)
            self.path.push(pc)

    def on_indirect(self, pc: int, target: int) -> None:
        if self._plan is None:
            self.ghist.push_indirect(target)
            self.path.push(pc)

    def clear(self) -> None:
        for table in self.tables:
            table.clear()
        self.ghist.reset()
        self.path.reset()

    def sizing(self, name: str, **fields: int) -> PredictorSizing:
        """The bank as one storage row: a ``tag`` field plus ``fields``.

        Per-table tag widths show as their entry-weighted mean;
        ``extra_bits`` keeps the total exact.
        """
        entries = sum(table.num_entries for table in self.tables)
        tag_bits = sum(table.num_entries * table.tag_bits
                       for table in self.tables)
        tag = round(tag_bits / entries)
        return PredictorSizing(
            name=name,
            tables=f"{self.num_tables} ({self.tables[0].ways} way)",
            total_entries=entries,
            fields_per_entry={"tag": tag, **fields},
            extra_bits=tag_bits - entries * tag,
        )


class TableBankPredictor(MDPredictor):
    """An :class:`MDPredictor` whose state is one :class:`TableBank`.

    Supplies the shared plumbing — branch-history hooks, priming, and the
    commit-time entry re-find — so MASCOT, PHAST, TAGE-MDP and IDist only
    implement their :meth:`lookup` / :meth:`update` policy.  ``keys`` on
    the hook wire format are the bank's :data:`BankKeys`.
    """

    bank: TableBank

    def _reacquire(self, keys: BankKeys, source: Optional[int]) -> Any:
        """Re-find the predicting entry at commit time.

        Hardware re-indexes with the keys carried in the instruction; if the
        entry was replaced between prediction and commit the tag no longer
        matches and no update is applied to it.
        """
        return self.bank.find(source, keys[0], keys[1])

    def on_branch(self, pc: int, taken: bool) -> None:
        self.bank.on_branch(pc, taken)

    def on_indirect(self, pc: int, target: int) -> None:
        self.bank.on_indirect(pc, target)

    def prime(self, stream: BranchStream, load_pc: np.ndarray,
              cond_before: np.ndarray, ind_before: np.ndarray) -> bool:
        return self.bank.prime(stream, load_pc, cond_before, ind_before)

    def finish(self) -> None:
        self.bank.finish(self.name)

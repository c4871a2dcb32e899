"""A simplified TAGE direction predictor.

This is the front-end predictor used by the timing model (standing in for
Table I's TAGE-SC-L; we omit the statistical corrector and loop predictor).
It also serves as the reference implementation of classic TAGE behaviour
that MASCOT (Sec. IV) modifies: compare :meth:`TAGEBranchPredictor._train`'s
allocate-on-mispredict policy with MASCOT's non-dependence allocation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..common.bitops import mask
from ..common.foldplan import (
    BranchStream,
    FoldPlan,
    check_consumed,
    primed_rows,
)
from ..common.hashing import (
    table_index,
    table_index_array,
    table_tag,
    table_tag_array,
)
from ..common.history import GlobalHistory
from .base import BranchPredictor

__all__ = ["TAGEBranchPredictor", "TageEntry"]


@dataclass
class TageEntry:
    """One tagged TAGE entry: 3-bit signed-ish counter, tag, 2-bit useful."""

    tag: int = 0
    counter: int = 4          # 3-bit counter, >= 4 predicts taken
    useful: int = 0           # 2-bit usefulness
    valid: bool = False


class TAGEBranchPredictor(BranchPredictor):
    """TAGE with a bimodal base predictor and geometric history lengths."""

    DEFAULT_HISTORIES: Tuple[int, ...] = (4, 8, 16, 32, 64, 128)

    def __init__(
        self,
        histories: Sequence[int] = DEFAULT_HISTORIES,
        index_bits: int = 10,
        tag_bits: int = 11,
        base_index_bits: int = 13,
        useful_reset_period: int = 256_000,
        use_ittage: bool = True,
    ):
        super().__init__()
        if any(h <= 0 for h in histories):
            raise ValueError("history lengths must be positive")
        if list(histories) != sorted(histories):
            raise ValueError("history lengths must be increasing")
        self.histories = tuple(histories)
        self.index_bits = index_bits
        self.tag_bits = tag_bits
        self.base_index_bits = base_index_bits
        self.useful_reset_period = useful_reset_period

        self._base = [2] * (1 << base_index_bits)  # 2-bit bimodal
        self._tables: List[List[TageEntry]] = [
            [TageEntry() for _ in range(1 << index_bits)] for _ in histories
        ]
        self._ghist = GlobalHistory(max_bits=max(histories) + 8)
        self._index_folds = [
            self._ghist.attach_fold(h, index_bits) for h in histories
        ]
        self._tag_folds = [
            self._ghist.attach_fold(h, tag_bits) for h in histories
        ]
        self._tag_folds2 = [
            self._ghist.attach_fold(h, max(tag_bits - 1, 1)) for h in histories
        ]
        self._match_order = tuple(range(len(histories) - 1, -1, -1))
        self._branch_count = 0
        # Indirect targets: ITTAGE when enabled (Table I's front end pairs
        # TAGE-SC-L with an indirect target predictor), else the base
        # class's last-target fallback.
        self._ittage = None
        if use_ittage:
            from .ittage import ITTAGE
            self._ittage = ITTAGE()
        # Per-prediction scratch, filled by _predict, consumed by _train.
        self._hit_table: Optional[int] = None
        self._indices: Sequence[int] = ()
        self._tags: Sequence[int] = ()
        self._base_idx = 0
        # Primed run state (see prime/finish); None on the reference path.
        self._rows: Optional[Iterator[Tuple]] = None
        self._plan: Optional[FoldPlan] = None
        self._primed = 0

    # -- helpers -------------------------------------------------------------

    def _base_index(self, pc: int) -> int:
        return (pc >> 1) & mask(self.base_index_bits)

    def _compute_keys(self, pc: int) -> None:
        """Reference keys of ``pc`` under the current history."""
        self._indices = [
            table_index(pc, self.index_bits, fold.value, table_number=t + 1)
            for t, fold in enumerate(self._index_folds)
        ]
        self._tags = [
            table_tag(pc, self.tag_bits, f1.value, f2.value)
            for f1, f2 in zip(self._tag_folds, self._tag_folds2)
        ]
        self._base_idx = self._base_index(pc)

    # -- BranchPredictor interface ---------------------------------------------

    def _predict(self, pc: int) -> bool:
        # Keys: the branch's primed row after prime(), else the reference.
        rows = self._rows
        if rows is not None:
            self._indices, self._tags, self._base_idx = next(rows)
        else:
            self._compute_keys(pc)
        indices = self._indices
        tags = self._tags
        tables = self._tables
        for t in self._match_order:
            entry = tables[t][indices[t]]
            if entry.valid and entry.tag == tags[t]:
                self._hit_table = t
                return entry.counter >= 4
        self._hit_table = None
        return self._base[self._base_idx] >= 2

    def _train(self, pc: int, taken: bool, prediction: bool) -> None:
        mispredicted = prediction != taken
        hit = self._hit_table

        if hit is None:
            idx = self._base_idx
            counter = self._base[idx]
            if taken:
                self._base[idx] = counter + 1 if counter < 3 else 3
            else:
                self._base[idx] = counter - 1 if counter > 0 else 0
        else:
            entry = self._tables[hit][self._indices[hit]]
            if not mispredicted and entry.useful < 3:
                entry.useful += 1
            if taken:
                if entry.counter < 7:
                    entry.counter += 1
            elif entry.counter > 0:
                entry.counter -= 1

        if mispredicted:
            self._allocate(taken, hit)

        self._branch_count += 1
        if self._branch_count % self.useful_reset_period == 0:
            self._decay_useful()
        if self._plan is None:
            self._ghist.push_conditional(taken)

    def _allocate(self, taken: bool, hit: Optional[int]) -> None:
        """Allocate one entry in a longer-history table after a mispredict."""
        start = 0 if hit is None else hit + 1
        for t in range(start, len(self.histories)):
            entry = self._tables[t][self._indices[t]]
            if not entry.valid or entry.useful == 0:
                entry.valid = True
                entry.tag = self._tags[t]
                entry.counter = 4 if taken else 3
                entry.useful = 0
                return
        # All candidates useful: age them so a future allocation succeeds.
        for t in range(start, len(self.histories)):
            entry = self._tables[t][self._indices[t]]
            entry.useful = max(0, entry.useful - 1)

    def _decay_useful(self) -> None:
        for table in self._tables:
            for entry in table:
                entry.useful >>= 1

    def observe_indirect(self, pc: int, target: int) -> bool:
        """Predict/train the indirect target via ITTAGE when enabled."""
        if self._ittage is None:
            return super().observe_indirect(pc, target)
        correct = self._ittage.predict_and_train(pc, target)
        self._ittage.on_outcome(target)
        if self._plan is None:
            self._ghist.push_indirect(target)
        self.stats.indirect_branches += 1
        if not correct:
            self.stats.indirect_mispredictions += 1
        return correct

    # -- whole-run key precomputation ------------------------------------------

    def prime(self, stream: BranchStream) -> None:
        """Precompute every conditional branch's table keys, vectorised.

        TAGE's history stream is the conditional outcome bits, plus the
        folded indirect-target bits when an ITTAGE is attached (mirroring
        :meth:`observe_indirect`'s ``push_indirect``)."""
        cond = stream.kind == 0
        if self._ittage is not None:
            self._ittage.prime(stream)
            bits, offsets = stream.mixed()
            k_cond = offsets[cond]
        else:
            bits = stream.cond_only()
            k_cond = np.arange(int(np.count_nonzero(cond)))
        plan = FoldPlan.for_history(self._ghist, bits)
        if plan is None:
            return
        pc = stream.pc[cond]
        icols = []
        tcols = []
        for t, h in enumerate(self.histories):
            icols.append(table_index_array(
                pc, self.index_bits, plan.column(h, self.index_bits)[k_cond],
                table_number=t + 1))
            tcols.append(table_tag_array(
                pc, self.tag_bits, plan.column(h, self.tag_bits)[k_cond],
                plan.column(h, max(self.tag_bits - 1, 1))[k_cond]))
        self._plan = plan
        self._primed = int(pc.shape[0])
        self._rows = primed_rows(
            np.array(icols, dtype=np.int32), np.array(tcols, dtype=np.int32),
            ((pc >> 1) & mask(self.base_index_bits)).astype(np.int32))

    def finish(self) -> None:
        """Advance the history to the end of a primed run and drop the
        rows; raises ``RuntimeError`` if any primed row went unused."""
        rows, primed = self._rows, self._primed
        if self._plan is not None:
            self._plan.write_back()
            self._plan = None
            self._rows = None
            self._primed = 0
        if self._ittage is not None:
            self._ittage.finish()
        if rows is not None:
            check_consumed(type(self).__name__, rows, primed)

    @property
    def storage_bits(self) -> int:
        """Approximate table storage in bits."""
        entry_bits = self.tag_bits + 3 + 2 + 1
        tagged = sum(len(t) for t in self._tables) * entry_bits
        total = tagged + 2 * len(self._base)
        if self._ittage is not None:
            total += self._ittage.storage_bits
        return total

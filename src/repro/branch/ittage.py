"""ITTAGE-style indirect branch target predictor.

Sec. III-B of the paper leans on the TAGE/ITTAGE analogy: "the reason that
ITTAGE and TAGE are kept separate in branch prediction is that TAGE entries
are much smaller... In the analogy, all loads are indirect branches."  We
provide a compact ITTAGE so the timing model's indirect branches are
predicted with history context rather than the last-target baseline, and so
the analogy is concretely inspectable in code: compare
:class:`ITTAGE`'s target-table entries with MASCOT's distance entries.
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
from ..common.history import INDIRECT_TARGET_BITS, GlobalHistory

__all__ = ["ITTAGE", "ITtageEntry"]

#: (per-table indices, per-table tags, base-table index) of one branch.
ITtageKeys = Tuple[Tuple[int, ...], Tuple[int, ...], int]


@dataclass
class ITtageEntry:
    """Tag + full target + 2-bit confidence + 2-bit usefulness."""

    tag: int
    target: int
    confidence: int = 1
    useful: int = 0


class ITTAGE:
    """A small ITTAGE: base last-target table + tagged history tables."""

    def __init__(
        self,
        histories: Sequence[int] = (2, 8, 32, 128),
        index_bits: int = 8,
        tag_bits: int = 9,
        base_index_bits: int = 10,
    ):
        if list(histories) != sorted(histories) or not histories:
            raise ValueError("history lengths must be increasing, non-empty")
        self.histories = tuple(histories)
        self.index_bits = index_bits
        self.tag_bits = tag_bits
        self.base_index_bits = base_index_bits

        # Base predictor: direct-mapped last-target table.
        self._base: List[Optional[int]] = [None] * (1 << base_index_bits)
        self._tables: List[List[Optional[ITtageEntry]]] = [
            [None] * (1 << index_bits) for _ in histories
        ]
        self._ghist = GlobalHistory(max_bits=max(histories) + 8)
        self._index_folds = [
            self._ghist.attach_fold(h, index_bits) for h in histories
        ]
        self._tag_folds = [
            self._ghist.attach_fold(h, tag_bits) for h in histories
        ]
        self._tag_folds2 = [
            self._ghist.attach_fold(h, max(tag_bits - 1, 1))
            for h in histories
        ]
        # Prediction counters.
        self.lookups = 0
        self.mispredictions = 0
        # Primed run state (see prime/finish); None on the reference path.
        self._rows: Optional[Iterator[ITtageKeys]] = None
        self._plan: Optional[FoldPlan] = None
        self._primed = 0

    # -------------------------------------------------------------------- keys

    def _base_index(self, pc: int) -> int:
        return (pc >> 1) & mask(self.base_index_bits)

    def _keys(self, pc: int) -> ITtageKeys:
        """Reference keys under the current history: per-table indices and
        tags, then the base-table index."""
        indices = tuple(
            table_index(pc, self.index_bits, self._index_folds[t].value,
                        table_number=t + 1)
            for t in range(len(self.histories))
        )
        tags = tuple(
            table_tag(pc, self.tag_bits, self._tag_folds[t].value,
                      self._tag_folds2[t].value)
            for t in range(len(self.histories))
        )
        return indices, tags, self._base_index(pc)

    # ----------------------------------------------------------------- predict

    def predict(self, pc: int) -> Optional[int]:
        """Predicted target, or None when nothing is known."""
        indices, tags, base_index = self._keys(pc)
        for t in range(len(self.histories) - 1, -1, -1):
            entry = self._tables[t][indices[t]]
            if entry is not None and entry.tag == tags[t]:
                return entry.target
        return self._base[base_index]

    def predict_and_train(self, pc: int, target: int) -> bool:
        """Predict, then update with the resolved target.

        Returns True when the target was predicted correctly.  History must
        be advanced separately via :meth:`on_outcome` (the trace drives it
        through the owning branch predictor in the pipeline).  Keys come
        from the primed rows after :meth:`prime`.
        """
        rows = self._rows
        indices, tags, base_index = (next(rows) if rows is not None
                                     else self._keys(pc))
        provider: Optional[int] = None
        prediction: Optional[int] = None
        for t in range(len(self.histories) - 1, -1, -1):
            entry = self._tables[t][indices[t]]
            if entry is not None and entry.tag == tags[t]:
                provider = t
                prediction = entry.target
                break
        if prediction is None:
            prediction = self._base[base_index]

        correct = prediction == target
        self.lookups += 1
        if not correct:
            self.mispredictions += 1

        # Update provider / base.
        if provider is not None:
            entry = self._tables[provider][indices[provider]]
            if entry.target == target:
                entry.confidence = min(3, entry.confidence + 1)
                entry.useful = min(3, entry.useful + 1)
            elif entry.confidence > 0:
                entry.confidence -= 1
            else:
                entry.target = target
                entry.confidence = 1
        self._base[base_index] = target

        # Allocate on a mispredict, in a longer-history table.
        if not correct:
            start = 0 if provider is None else provider + 1
            for t in range(start, len(self.histories)):
                table = self._tables[t]
                entry = table[indices[t]]
                if entry is None or entry.useful == 0:
                    table[indices[t]] = ITtageEntry(tag=tags[t],
                                                    target=target)
                    break
                entry.useful -= 1
        return correct

    def on_outcome(self, target: int) -> None:
        """Push the resolved target into this predictor's own history."""
        if self._plan is None:
            self._ghist.push_indirect(target)

    # -------------------------------------------------------------- priming

    def prime(self, stream: BranchStream) -> None:
        """Precompute every indirect branch's table keys, vectorised.

        The private history sees only the folded target bits of indirect
        events (:meth:`on_outcome`), a pure function of the trace."""
        plan = FoldPlan.for_history(self._ghist, stream.ind_only())
        if plan is None:
            return
        pc = stream.pc[stream.kind != 0]
        k_push = np.arange(int(pc.shape[0])) * INDIRECT_TARGET_BITS
        icols = []
        tcols = []
        for t, h in enumerate(self.histories):
            icols.append(table_index_array(
                pc, self.index_bits, plan.column(h, self.index_bits)[k_push],
                table_number=t + 1))
            tcols.append(table_tag_array(
                pc, self.tag_bits, plan.column(h, self.tag_bits)[k_push],
                plan.column(h, max(self.tag_bits - 1, 1))[k_push]))
        self._plan = plan
        self._primed = int(pc.shape[0])
        self._rows = primed_rows(
            np.array(icols, dtype=np.int32), np.array(tcols, dtype=np.int32),
            ((pc >> 1) & mask(self.base_index_bits)).astype(np.int32))

    def finish(self) -> None:
        """Advance the history to the end of a primed run and drop the
        rows; raises ``RuntimeError`` if any primed row went unused."""
        if self._plan is not None:
            self._plan.write_back()
            rows, primed = self._rows, self._primed
            self._plan = None
            self._rows = None
            self._primed = 0
            check_consumed(type(self).__name__, rows, primed)

    @property
    def misprediction_rate(self) -> float:
        if self.lookups == 0:
            return 0.0
        return self.mispredictions / self.lookups

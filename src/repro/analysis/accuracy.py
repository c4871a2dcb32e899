"""Classification of prediction outcomes and accuracy accounting.

Implements the error taxonomy of Fig. 5 / Fig. 8:

* **false dependence** — a dependence was predicted but none existed.  For
  MDP this only delays the load; for SMB it squashes (the load obtained a
  value it should not have).
* **speculative error** — any outcome requiring a squash in the MDP sense:
  a missed dependence (predicted none, dependence existed), a conflict with
  a different store than predicted, or a bypass that delivered the wrong
  value (wrong store or non-bypassable overlap).

The same classification drives the Fig. 8 misprediction counts, the Fig. 10
prediction/misprediction mixes and the squash decisions of the timing model,
so accuracy-mode and timing-mode experiments can never disagree about what
counts as an error.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from ..predictors.base import (
    KIND_CODES,
    KIND_MDP,
    KIND_NO_DEP,
    KIND_SMB,
    PRED_KIND_BY_CODE,
    ActualOutcome,
    Prediction,
    PredictionKind,
)
from ..trace.uop import SAME_ADDRESS_BYPASSABLE

__all__ = [
    "OutcomeKind",
    "Outcome",
    "OUTCOME_BY_CODE",
    "OUTCOME_CODES",
    "classify",
    "classify_code",
    "AccuracyStats",
    "DEFAULT_BYPASSABLE",
]

#: Overlap classes the default modelled bypass hardware supports
#: (Sec. IV-E: same-address bypassing; the load may be narrower than the
#: store).  Predictors built for shift-capable datapaths override this via
#: :attr:`repro.predictors.base.MDPredictor.bypassable_classes`.
DEFAULT_BYPASSABLE = SAME_ADDRESS_BYPASSABLE


class OutcomeKind(enum.Enum):
    """Joint classification of (prediction, ground truth)."""

    CORRECT_NODEP = "correct_nodep"
    CORRECT_MDP = "correct_mdp"        # right store, no bypass claimed
    CORRECT_SMB = "correct_smb"        # right store, bypass delivered
    FALSE_DEP_MDP = "false_dep_mdp"    # predicted MDP, no dependence
    FALSE_DEP_SMB = "false_dep_smb"    # predicted SMB, no dependence (squash)
    MISSED_DEP = "missed_dep"          # predicted none, dependence (squash)
    WRONG_STORE_MDP = "wrong_store_mdp"  # MDP named the wrong store (squash)
    WRONG_STORE_SMB = "wrong_store_smb"  # SMB named the wrong store (squash)
    SMB_NOT_BYPASSABLE = "smb_not_bypassable"  # right store, partial value (squash)

    @property
    def is_misprediction(self) -> bool:
        return self not in (
            OutcomeKind.CORRECT_NODEP,
            OutcomeKind.CORRECT_MDP,
            OutcomeKind.CORRECT_SMB,
        )

    @property
    def is_false_dependence(self) -> bool:
        """Fig. 8's 'false dependencies' bucket."""
        return self in (OutcomeKind.FALSE_DEP_MDP, OutcomeKind.FALSE_DEP_SMB)

    @property
    def is_speculative_error(self) -> bool:
        """Fig. 8's 'speculative errors' bucket (squash-causing)."""
        return self in (
            OutcomeKind.MISSED_DEP,
            OutcomeKind.WRONG_STORE_MDP,
            OutcomeKind.WRONG_STORE_SMB,
            OutcomeKind.SMB_NOT_BYPASSABLE,
            OutcomeKind.FALSE_DEP_SMB,
        )

    @property
    def causes_squash(self) -> bool:
        return self.is_speculative_error


@dataclass(frozen=True)
class Outcome:
    """The classification result for one dynamic load."""

    kind: OutcomeKind
    prediction: PredictionKind
    #: True when the named store matched exactly (distance or seq).
    store_match: bool


#: Integer outcome codes (indices into :class:`OutcomeKind` order): the
#: fused predictor path returns codes, so hot loops count outcomes with
#: list indexing instead of enum hashing.
OUTCOME_BY_CODE = tuple(OutcomeKind)
OUTCOME_CODES = {kind: code for code, kind in enumerate(OUTCOME_BY_CODE)}

_OC_CORRECT_NODEP = OUTCOME_CODES[OutcomeKind.CORRECT_NODEP]
_OC_CORRECT_MDP = OUTCOME_CODES[OutcomeKind.CORRECT_MDP]
_OC_CORRECT_SMB = OUTCOME_CODES[OutcomeKind.CORRECT_SMB]
_OC_FALSE_DEP_MDP = OUTCOME_CODES[OutcomeKind.FALSE_DEP_MDP]
_OC_FALSE_DEP_SMB = OUTCOME_CODES[OutcomeKind.FALSE_DEP_SMB]
_OC_MISSED_DEP = OUTCOME_CODES[OutcomeKind.MISSED_DEP]
_OC_WRONG_STORE_MDP = OUTCOME_CODES[OutcomeKind.WRONG_STORE_MDP]
_OC_WRONG_STORE_SMB = OUTCOME_CODES[OutcomeKind.WRONG_STORE_SMB]
_OC_SMB_NOT_BYP = OUTCOME_CODES[OutcomeKind.SMB_NOT_BYPASSABLE]

#: Outcomes in which the prediction named the actual store (or correctly
#: named none).
_STORE_MATCHED = frozenset({
    OutcomeKind.CORRECT_NODEP, OutcomeKind.CORRECT_MDP,
    OutcomeKind.CORRECT_SMB, OutcomeKind.SMB_NOT_BYPASSABLE,
})

#: Store distances are compared at the 7-bit field's saturation value.
_DISTANCE_CAP = 127


def classify_code(kind: int, p_dist: int, p_seq: Optional[int],
                  a_dist: int, a_seq: Optional[int],
                  a_bypassable: bool) -> int:
    """The Fig. 5 decision tree over int-coded values.

    ``kind`` is a :data:`~repro.predictors.base.PRED_KIND_BY_CODE` index,
    ``p_dist``/``p_seq`` the predicted store, ``a_dist``/``a_seq`` the
    actual one (``a_dist == 0``: no dependence) and ``a_bypassable``
    whether the actual overlap class is one the predictor's bypass
    datapath can deliver.  Stores match by sequence number when both
    sides carry one, else by (capped) distance.  Returns an
    :data:`OUTCOME_BY_CODE` index.
    """
    if kind == KIND_NO_DEP:
        return _OC_MISSED_DEP if a_dist > 0 else _OC_CORRECT_NODEP
    if a_dist <= 0:
        return _OC_FALSE_DEP_SMB if kind == KIND_SMB else _OC_FALSE_DEP_MDP
    if p_seq is not None and a_seq is not None:
        match = p_seq == a_seq
    else:
        match = p_dist == (a_dist if a_dist < _DISTANCE_CAP
                           else _DISTANCE_CAP)
    if kind == KIND_MDP:
        return _OC_CORRECT_MDP if match else _OC_WRONG_STORE_MDP
    if not match:
        return _OC_WRONG_STORE_SMB
    return _OC_CORRECT_SMB if a_bypassable else _OC_SMB_NOT_BYP


def classify(prediction: Prediction, actual: ActualOutcome,
             bypassable_classes: frozenset = DEFAULT_BYPASSABLE) -> Outcome:
    """Map a (prediction, ground truth) pair onto the Fig. 5 decision tree."""
    kind = OUTCOME_BY_CODE[classify_code(
        KIND_CODES[prediction.kind], prediction.distance,
        prediction.store_seq, actual.distance, actual.store_seq,
        actual.bypass in bypassable_classes,
    )]
    return Outcome(kind, prediction.kind, kind in _STORE_MATCHED)


@dataclass
class AccuracyStats:
    """Aggregated outcome counts for one (benchmark, predictor) run."""

    loads: int = 0
    outcome_counts: Dict[OutcomeKind, int] = field(
        default_factory=lambda: {kind: 0 for kind in OutcomeKind}
    )
    prediction_counts: Dict[PredictionKind, int] = field(
        default_factory=lambda: {kind: 0 for kind in PredictionKind}
    )
    instructions: int = 0

    def record(self, outcome: Outcome) -> None:
        self.loads += 1
        self.outcome_counts[outcome.kind] += 1
        self.prediction_counts[outcome.prediction] += 1

    def record_codes(self, outcome_counts: Sequence[int],
                     kind_counts: Sequence[int]) -> None:
        """Add per-code tallies: ``outcome_counts`` indexed like
        :data:`OUTCOME_BY_CODE`, ``kind_counts`` like
        :data:`~repro.predictors.base.PRED_KIND_BY_CODE`."""
        for code, count in enumerate(outcome_counts):
            if count:
                self.outcome_counts[OUTCOME_BY_CODE[code]] += count
                self.loads += count
        for code, count in enumerate(kind_counts):
            if count:
                self.prediction_counts[PRED_KIND_BY_CODE[code]] += count

    # -- aggregate views -------------------------------------------------------

    @property
    def mispredictions(self) -> int:
        return sum(c for k, c in self.outcome_counts.items()
                   if k.is_misprediction)

    @property
    def false_dependencies(self) -> int:
        return sum(c for k, c in self.outcome_counts.items()
                   if k.is_false_dependence)

    @property
    def speculative_errors(self) -> int:
        return sum(c for k, c in self.outcome_counts.items()
                   if k.is_speculative_error)

    @property
    def squashes(self) -> int:
        return sum(c for k, c in self.outcome_counts.items()
                   if k.causes_squash)

    def mpki(self, instructions: Optional[int] = None) -> float:
        """Mispredictions per kilo-instruction.

        A run whose warmup covered the whole trace measures zero
        instructions and zero loads; its rate is defined as 0.0 rather
        than an error.  A zero denominator with recorded mispredictions
        is still rejected — that is an accounting bug, not an empty run.
        """
        count = instructions if instructions is not None else self.instructions
        if count <= 0:
            if count == 0 and self.mispredictions == 0:
                return 0.0
            raise ValueError("instruction count must be positive")
        return 1000.0 * self.mispredictions / count

    def misprediction_mix(self) -> Dict[PredictionKind, int]:
        """Fig. 10 (right): mispredictions bucketed by predicted type."""
        mix = {kind: 0 for kind in PredictionKind}
        for outcome_kind, count in self.outcome_counts.items():
            if not outcome_kind.is_misprediction:
                continue
            if outcome_kind in (OutcomeKind.FALSE_DEP_SMB,
                                OutcomeKind.WRONG_STORE_SMB,
                                OutcomeKind.SMB_NOT_BYPASSABLE):
                mix[PredictionKind.SMB] += count
            elif outcome_kind is OutcomeKind.MISSED_DEP:
                mix[PredictionKind.NO_DEP] += count
            else:
                mix[PredictionKind.MDP] += count
        return mix

    def merge(self, other: "AccuracyStats") -> None:
        self.loads += other.loads
        self.instructions += other.instructions
        for kind, count in other.outcome_counts.items():
            self.outcome_counts[kind] += count
        for kind, count in other.prediction_counts.items():
            self.prediction_counts[kind] += count

    # -- serialisation (on-disk result cache) ----------------------------------

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable form; inverse of :meth:`from_dict`."""
        return {
            "loads": self.loads,
            "instructions": self.instructions,
            "outcomes": {k.value: c for k, c in self.outcome_counts.items()},
            "predictions": {
                k.value: c for k, c in self.prediction_counts.items()
            },
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "AccuracyStats":
        stats = cls(loads=int(data["loads"]),
                    instructions=int(data["instructions"]))
        for value, count in data["outcomes"].items():
            stats.outcome_counts[OutcomeKind(value)] = int(count)
        for value, count in data["predictions"].items():
            stats.prediction_counts[PredictionKind(value)] = int(count)
        return stats

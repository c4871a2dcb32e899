"""Accuracy classification, counter analysis and F1-based tuning."""

from .accuracy import (
    DEFAULT_BYPASSABLE,
    AccuracyStats,
    Outcome,
    OutcomeKind,
    classify,
)
from .f1 import F1Recorder, RankedF1Profile, merge_profiles, suggest_table_sizes
from .markov import expected_drain_from_max, expected_drain_steps
from .sensitivity import (
    GridPointResult,
    ParameterGrid,
    SensitivityStudy,
    StudyResults,
)

__all__ = [
    "DEFAULT_BYPASSABLE",
    "AccuracyStats",
    "Outcome",
    "OutcomeKind",
    "classify",
    "F1Recorder",
    "RankedF1Profile",
    "merge_profiles",
    "suggest_table_sizes",
    "GridPointResult",
    "ParameterGrid",
    "SensitivityStudy",
    "StudyResults",
    "expected_drain_from_max",
    "expected_drain_steps",
]

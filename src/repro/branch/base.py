"""Common interface for branch direction predictors.

The timing pipeline uses a direction predictor to decide which branches
redirect the front end (Table I's machine uses TAGE-SC-L; we provide GShare
and a simplified TAGE).  The memory-dependence predictors do *not* consume
these predictions — they only consume the architectural outcome stream via
their own :class:`~repro.common.history.GlobalHistory` — so branch-predictor
fidelity only affects the timing model's redirect rate.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ..common.foldplan import BranchStream

__all__ = ["BranchPredictor", "BranchStats"]


@dataclass
class BranchStats:
    """Aggregate accuracy counters for a direction predictor."""

    conditional_branches: int = 0
    mispredictions: int = 0
    indirect_branches: int = 0
    indirect_mispredictions: int = 0

    @property
    def misprediction_rate(self) -> float:
        if self.conditional_branches == 0:
            return 0.0
        return self.mispredictions / self.conditional_branches

    def mpki(self, instructions: int) -> float:
        """Conditional mispredictions per kilo-instruction."""
        if instructions <= 0:
            raise ValueError("instruction count must be positive")
        return 1000.0 * self.mispredictions / instructions


class BranchPredictor(abc.ABC):
    """A branch direction predictor with a combined predict+train step.

    The trace-driven pipeline processes branches in program order, so the
    usual fetch-time speculation / commit-time repair split collapses into a
    single :meth:`predict_and_train` call per dynamic branch.  Both timing
    engines drive the same calls — :meth:`predict_and_train` and
    :meth:`observe_indirect` — and the batched engine brackets its replay
    with :meth:`prime` / :meth:`finish`.
    """

    def __init__(self) -> None:
        self.stats = BranchStats()

    @abc.abstractmethod
    def _predict(self, pc: int) -> bool:
        """Direction guess for the branch at ``pc`` under current history."""

    @abc.abstractmethod
    def _train(self, pc: int, taken: bool, prediction: bool) -> None:
        """Update tables and history with the resolved outcome."""

    def predict_and_train(self, pc: int, taken: bool) -> bool:
        """Predict the branch, then train on its outcome.

        Returns ``True`` when the prediction was correct.
        """
        prediction = self._predict(pc)
        self._train(pc, taken, prediction)
        correct = prediction == taken
        self.stats.conditional_branches += 1
        if not correct:
            self.stats.mispredictions += 1
        return correct

    def prime(self, stream: "BranchStream") -> None:
        """Precompute a whole run's history-dependent keys (optional).

        The batched engine hands over the run's architectural branch
        stream before replaying it; until :meth:`finish`, a priming
        predictor reads each branch's keys from the precomputed rows and
        leaves its history registers alone.  The default keeps the
        reference path.
        """

    def finish(self) -> None:
        """End a primed run: write the final history state back and drop
        the primed rows."""

    def observe_indirect(self, pc: int, target: int) -> bool:
        """Record an indirect branch; returns True if the target was predicted.

        The base implementation models a last-target predictor, the common
        baseline inside a BTB.  Subclasses may override.
        """
        if not hasattr(self, "_last_targets"):
            self._last_targets = {}
        predicted = self._last_targets.get(pc)
        self._last_targets[pc] = target
        correct = predicted == target
        self.stats.indirect_branches += 1
        if not correct:
            self.stats.indirect_mispredictions += 1
        return correct

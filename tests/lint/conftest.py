"""Shared helpers for the lint test suite."""

from __future__ import annotations

import textwrap
from pathlib import Path
from typing import Dict, List

import pytest

from repro.lint import lint_paths
from repro.lint.findings import Finding


class LintBox:
    """Write fixture modules into a tmp dir and lint them."""

    def __init__(self, root: Path):
        self.root = root

    def write(self, name: str, source: str) -> Path:
        path = self.root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
        return path

    def lint(self) -> List[Finding]:
        return lint_paths([self.root]).findings

    def active_rules(self) -> List[str]:
        return [f.rule for f in self.lint() if f.active]


@pytest.fixture
def box(tmp_path: Path) -> LintBox:
    return LintBox(tmp_path)


#: A minimal non-oracle predictor that honours the contract.
HONEST_PREDICTOR = """
    from repro.predictors.base import MDPredictor, Prediction, PredictionKind


    class Honest(MDPredictor):
        def predict(self, uop):
            return Prediction(PredictionKind.NO_DEP, meta={"pc": uop.pc})

        def train(self, uop, prediction, actual):
            self.last = actual.bypass  # commit-time reads are legal
"""

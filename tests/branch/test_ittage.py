"""Tests for the ITTAGE indirect target predictor."""

import random

import pytest

from repro.branch.ittage import ITTAGE
from repro.branch.tage import TAGEBranchPredictor


class TestConstruction:
    def test_histories_validated(self):
        with pytest.raises(ValueError):
            ITTAGE(histories=(8, 2))
        with pytest.raises(ValueError):
            ITTAGE(histories=())

    def test_storage_positive(self):
        it = ITTAGE(histories=(2, 8, 32), index_bits=6, base_index_bits=7)
        # One 64-entry tagged table per history + a 128-entry base table.
        assert [len(table) for table in it._tables] == [64, 64, 64]
        assert len(it._base) == 128


class TestLearning:
    def test_monomorphic_target(self):
        """A single-target indirect branch is learned immediately."""
        it = ITTAGE()
        for _ in range(5):
            it.predict_and_train(0x400100, 0x500000)
            it.on_outcome(0x500000)
        assert it.predict(0x400100) == 0x500000

    def test_cold_predicts_none(self):
        assert ITTAGE().predict(0x400100) is None

    def test_history_patterned_targets(self):
        """An alternating-target branch defeats last-target but not
        ITTAGE."""
        targets = [0x500000, 0x600000]
        it = ITTAGE()
        # Warm up.
        for i in range(600):
            t = targets[i % 2]
            it.predict_and_train(0x400100, t)
            it.on_outcome(t)
        correct = 0
        for i in range(600, 1000):
            t = targets[i % 2]
            correct += it.predict_and_train(0x400100, t)
            it.on_outcome(t)
        assert correct / 400 > 0.9

    def test_beats_last_target_on_patterns(self):
        targets = [0x500000, 0x600000, 0x500000, 0x700000]

        def run_last_target():
            last = {}
            correct = 0
            for i in range(1200):
                t = targets[i % 4]
                correct += last.get(0x400100) == t
                last[0x400100] = t
            return correct / 1200

        def run_ittage():
            it = ITTAGE()
            correct = 0
            for i in range(1200):
                t = targets[i % 4]
                correct += it.predict_and_train(0x400100, t)
                it.on_outcome(t)
            return correct / 1200

        assert run_ittage() > run_last_target()

    def test_misprediction_rate_tracked(self):
        it = ITTAGE()
        it.predict_and_train(0x400100, 0x500000)
        assert it.lookups == 1
        assert 0.0 <= it.misprediction_rate <= 1.0


class TestTageIntegration:
    def test_tage_uses_ittage_by_default(self):
        pred = TAGEBranchPredictor()
        assert pred._ittage is not None

    def test_opt_out_falls_back_to_last_target(self):
        pred = TAGEBranchPredictor(use_ittage=False)
        assert pred._ittage is None
        assert not pred.observe_indirect(0x400100, 0x500000)
        assert pred.observe_indirect(0x400100, 0x500000)

    def test_ittage_handles_patterned_indirects(self):
        pred = TAGEBranchPredictor()
        targets = [0x500000, 0x600000]
        for i in range(800):
            pred.observe_indirect(0x400100, targets[i % 2])
        before = pred.stats.indirect_mispredictions
        for i in range(800, 1000):
            pred.observe_indirect(0x400100, targets[i % 2])
        tail_errors = pred.stats.indirect_mispredictions - before
        assert tail_errors < 40

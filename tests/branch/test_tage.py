"""Tests for the simplified TAGE branch predictor."""

import random

import pytest

from repro.branch.tage import TAGEBranchPredictor


class TestConstruction:
    def test_default_tables(self):
        pred = TAGEBranchPredictor()
        assert len(pred.histories) == 6

    def test_histories_must_increase(self):
        with pytest.raises(ValueError):
            TAGEBranchPredictor(histories=(8, 4))

    def test_histories_must_be_positive(self):
        with pytest.raises(ValueError):
            TAGEBranchPredictor(histories=(0, 4))

    def test_storage_accounting(self):
        pred = TAGEBranchPredictor(histories=(4, 8), index_bits=4,
                                   tag_bits=7, base_index_bits=5,
                                   use_ittage=False)
        # 2 tables x 16 entries x (7 tag + 3 ctr + 2 useful + 1 valid)
        # + 32 x 2-bit bimodal.
        assert pred.storage_bits == 2 * 16 * 13 + 32 * 2

    def test_storage_includes_ittage_when_enabled(self):
        with_it = TAGEBranchPredictor()
        without = TAGEBranchPredictor(use_ittage=False)
        assert with_it.storage_bits > without.storage_bits


class TestLearning:
    def test_monotone_branch(self):
        pred = TAGEBranchPredictor()
        correct = sum(
            pred.predict_and_train(0x400000, True) for _ in range(300)
        )
        assert correct >= 295

    def test_single_pattern_branch(self):
        pred = TAGEBranchPredictor()
        pattern = [True, True, True, False]
        for i in range(600):
            pred.predict_and_train(0x400000, pattern[i % 4])
        correct = sum(
            pred.predict_and_train(0x400000, pattern[i % 4])
            for i in range(400)
        )
        assert correct / 400 > 0.98

    def test_history_correlated_branch(self):
        """Branch B follows branch A's direction: TAGE must exploit it."""
        rng = random.Random(0)
        pred = TAGEBranchPredictor()
        for _ in range(3000):
            a = rng.random() < 0.5
            pred.predict_and_train(0x400000, a)
            pred.predict_and_train(0x400010, a)  # perfectly correlated
        correct = 0
        for _ in range(1000):
            a = rng.random() < 0.5
            pred.predict_and_train(0x400000, a)
            correct += pred.predict_and_train(0x400010, a)
        assert correct / 1000 > 0.9

    def test_beats_bimodal_on_5050_pattern(self):
        """A 50/50 alternating branch defeats bimodal but not TAGE."""
        pred = TAGEBranchPredictor()
        for i in range(800):
            pred.predict_and_train(0x400000, i % 2 == 0)
        correct = sum(
            pred.predict_and_train(0x400000, i % 2 == 0)
            for i in range(400)
        )
        assert correct / 400 > 0.95

    def test_always_not_taken(self):
        pred = TAGEBranchPredictor()
        for _ in range(10):
            pred.predict_and_train(0x400000, False)
        assert all(
            pred.predict_and_train(0x400000, False) for _ in range(100)
        )

    def test_biased_random_branch(self):
        rng = random.Random(0)
        pred = TAGEBranchPredictor()
        correct = 0
        for _ in range(4000):
            taken = rng.random() < 0.9
            correct += pred.predict_and_train(0x400020, taken)
        # Should be near the bias (90%), definitely above chance.
        assert correct / 4000 > 0.75


class TestStats:
    def test_counters_update(self):
        pred = TAGEBranchPredictor()
        pred.predict_and_train(0x400000, True)
        assert pred.stats.conditional_branches == 1

    def test_mpki(self):
        pred = TAGEBranchPredictor()
        for _ in range(100):
            pred.predict_and_train(0x400000, True)
        assert pred.stats.mpki(10_000) == pytest.approx(
            pred.stats.mispredictions / 10
        )
        with pytest.raises(ValueError):
            pred.stats.mpki(0)

    def test_indirect_last_target(self):
        """Without ITTAGE, indirect targets use the base class's
        last-target predictor."""
        pred = TAGEBranchPredictor(use_ittage=False)
        assert not pred.observe_indirect(0x400100, 0x500000)  # cold miss
        assert pred.observe_indirect(0x400100, 0x500000)      # repeat hits
        assert not pred.observe_indirect(0x400100, 0x600000)  # change misses
        assert pred.stats.indirect_branches == 3
        assert pred.stats.indirect_mispredictions == 2


class TestUsefulDecay:
    def test_decay_halves_useful(self):
        pred = TAGEBranchPredictor(useful_reset_period=10_000)
        # Populate some entries.
        pattern = [True, False]
        for i in range(500):
            pred.predict_and_train(0x400000 + 8 * (i % 16), pattern[i % 2])
        before = [
            entry.useful
            for table in pred._tables for entry in table if entry.valid
        ]
        pred._decay_useful()
        after = [
            entry.useful
            for table in pred._tables for entry in table if entry.valid
        ]
        assert all(a == b >> 1 for b, a in zip(before, after))

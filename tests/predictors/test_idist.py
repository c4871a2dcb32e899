"""Tests for the IDist + Store Sets split design (Sec. II-B.2)."""

import pytest

from repro.predictors.base import ActualOutcome, PredictionKind
from repro.predictors.idist import IDIST_HISTORY_LENGTHS, IDistStoreSets
from repro.trace.uop import BypassClass, MicroOp, OpClass

from tests.conftest import drive_predictor


def load(seq=100, pc=0x400100):
    return MicroOp(seq, pc, OpClass.LOAD, address=0x1000, size=8)


def dep(distance=3, bypass=BypassClass.DIRECT, store_seq=90, store_pc=0x400200):
    return ActualOutcome(distance=distance, store_seq=store_seq,
                         bypass=bypass, store_pc=store_pc)


def nodep():
    return ActualOutcome(distance=0, store_seq=None, bypass=BypassClass.NONE)


class TestStructure:
    def test_published_history_series(self):
        """Sec. II-B.2: 2, 5, 11, 27 and 64 bits of history."""
        assert IDIST_HISTORY_LENGTHS == (2, 5, 11, 27, 64)
        p = IDistStoreSets()
        assert p.history_lengths == (2, 5, 11, 27, 64)

    def test_includes_companion_store_sets(self):
        p = IDistStoreSets()
        assert p.store_sets is not None
        # Split designs pay for two structures.
        assert p.storage_bits > p.store_sets.storage_bits

    def test_supports_smb(self):
        assert IDistStoreSets().supports_smb


class TestConfidenceGating:
    def test_idist_silent_until_fully_confident(self):
        """'IDist only makes predictions when it is highly confident.'"""
        p = IDistStoreSets()
        uop = load()
        p.train(uop, p.predict(uop), dep())
        # Confidence 1 of 7: no SMB yet; MDP comes from Store Sets or not
        # at all.
        assert p.predict(uop).kind is not PredictionKind.SMB

    def test_smb_after_confidence_builds(self):
        p = IDistStoreSets()
        uop = load()
        for _ in range(10):
            p.train(uop, p.predict(uop), dep())
        assert p.predict(uop).kind is PredictionKind.SMB

    def test_non_bypassable_never_smb(self):
        p = IDistStoreSets()
        uop = load()
        for _ in range(12):
            p.train(uop, p.predict(uop), dep(bypass=BypassClass.MDP_ONLY))
        assert p.predict(uop).kind is not PredictionKind.SMB

    def test_false_dependence_resets_confidence(self):
        p = IDistStoreSets()
        uop = load()
        for _ in range(10):
            p.train(uop, p.predict(uop), dep())
        assert p.predict(uop).kind is PredictionKind.SMB
        p.train(uop, p.predict(uop), nodep())
        assert p.predict(uop).kind is not PredictionKind.SMB


class TestStoreSetsFallback:
    def test_mdp_comes_from_store_sets(self):
        """When IDist is silent, the companion provides the MDP decision."""
        p = IDistStoreSets()
        uop = load()
        # One violation trains the store set.
        pred = p.predict(uop)
        p.train(uop, pred, dep(store_seq=5))
        p.on_store(50, 0x400200)
        pred = p.predict(load(51))
        assert pred.kind is PredictionKind.MDP
        assert pred.store_seq == 50


class TestEndToEnd:
    def test_runs_on_trace(self, perlbench_trace):
        p = IDistStoreSets()
        assert drive_predictor(p, perlbench_trace) > 1000

    def test_reset(self, perlbench_trace):
        p = IDistStoreSets()
        drive_predictor(p, perlbench_trace)
        p.reset()
        assert p.predict(load()).kind is PredictionKind.NO_DEP

    def test_smb_more_conservative_than_mascot(self):
        """The split design bypasses fewer loads than MASCOT — the missed
        opportunities the paper's unification recovers."""
        from repro.predictors.mascot import Mascot
        from tests.conftest import small_trace

        trace = small_trace("perlbench1", 30_000)

        def smb_count(p):
            return sum(
                1 for _, pred, _ in drive_predictor(p, trace, collect=True)
                if pred.kind is PredictionKind.SMB
            )

        assert smb_count(IDistStoreSets()) < smb_count(Mascot())

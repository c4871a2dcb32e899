"""Tests for the Store Sets baseline."""

import pytest

from repro.predictors.base import ActualOutcome, PredictionKind
from repro.predictors.store_sets import StoreSets
from repro.trace.uop import BypassClass, MicroOp, OpClass

from tests.conftest import drive_predictor


def load(seq, pc=0x400100):
    return MicroOp(seq, pc, OpClass.LOAD, address=0x1000, size=8)


def violation(store_seq, store_pc=0x400200, distance=1):
    return ActualOutcome(distance=distance, store_seq=store_seq,
                         bypass=BypassClass.DIRECT, store_pc=store_pc)


class TestBasics:
    def test_size_is_18_5_kib(self):
        assert StoreSets().storage_kib == pytest.approx(18.5)

    def test_cold_predicts_no_dep(self):
        ss = StoreSets()
        assert ss.predict(load(10)).kind is PredictionKind.NO_DEP

    def test_never_smb(self):
        assert not StoreSets().supports_smb


class TestViolationTraining:
    def test_violation_creates_store_set(self):
        ss = StoreSets(clear_interval=0)
        uop = load(10)
        pred = ss.predict(uop)
        ss.train(uop, pred, violation(store_seq=5))
        # Next occurrence: the store is fetched, then the load predicts a
        # dependence on it.
        ss.on_store(20, 0x400200)
        pred = ss.predict(load(21))
        assert pred.kind is PredictionKind.MDP
        assert pred.store_seq == 20

    def test_no_training_without_violation(self):
        """A correctly-predicted dependence must not re-train."""
        ss = StoreSets(clear_interval=0)
        uop = load(10)
        ss.train(uop, ss.predict(uop), violation(store_seq=5))
        ss.on_store(20, 0x400200)
        uop2 = load(21)
        pred = ss.predict(uop2)
        before = ss.violations_trained
        ss.train(uop2, pred, violation(store_seq=20))
        assert ss.violations_trained == before

    def test_no_training_on_independent_load(self):
        ss = StoreSets(clear_interval=0)
        uop = load(10)
        pred = ss.predict(uop)
        ss.train(uop, pred, ActualOutcome(distance=0, store_seq=None,
                                          bypass=BypassClass.NONE))
        assert ss.violations_trained == 0

    def test_set_merging_on_shared_store(self):
        """Two loads violating on the same store end up serialised behind
        it — the over-serialisation that hurts Store Sets at scale."""
        ss = StoreSets(clear_interval=0)
        la, lb = load(10, pc=0x400100), load(11, pc=0x400108)
        ss.train(la, ss.predict(la), violation(store_seq=5))
        ss.train(lb, ss.predict(lb), violation(store_seq=5))
        ss.on_store(20, 0x400200)
        assert ss.predict(load(21, pc=0x400100)).store_seq == 20
        assert ss.predict(load(22, pc=0x400108)).store_seq == 20


class TestLFSTBehaviour:
    def test_stale_store_not_predicted(self):
        """A store beyond the instruction window has drained: no stall."""
        ss = StoreSets(clear_interval=0, instr_window=100)
        uop = load(10)
        ss.train(uop, ss.predict(uop), violation(store_seq=5))
        ss.on_store(20, 0x400200)
        pred = ss.predict(load(500))
        assert pred.kind is PredictionKind.NO_DEP

    def test_last_fetched_store_wins(self):
        ss = StoreSets(clear_interval=0)
        uop = load(10)
        ss.train(uop, ss.predict(uop), violation(store_seq=5))
        ss.on_store(20, 0x400200)
        ss.on_store(30, 0x400200)
        assert ss.predict(load(31)).store_seq == 30


class TestCyclicClearing:
    def test_tables_clear_periodically(self):
        ss = StoreSets(clear_interval=10)
        uop = load(10)
        ss.train(uop, ss.predict(uop), violation(store_seq=5))
        # Enough accesses to trigger the clear.
        for i in range(30):
            ss.predict(load(100 + i))
        ss.on_store(200, 0x400200)
        assert ss.predict(load(201)).kind is PredictionKind.NO_DEP

    def test_reset(self):
        ss = StoreSets(clear_interval=0)
        uop = load(10)
        ss.train(uop, ss.predict(uop), violation(store_seq=5))
        ss.reset()
        ss.on_store(20, 0x400200)
        assert ss.predict(load(21)).kind is PredictionKind.NO_DEP


class TestValidation:
    def test_positive_sizes(self):
        with pytest.raises(ValueError):
            StoreSets(ssit_entries=0)
        with pytest.raises(ValueError):
            StoreSets(lfst_entries=-1)

    @pytest.mark.parametrize("sizes", [{"ssit_entries": 8000},
                                       {"ssit_entries": 100},
                                       {"lfst_entries": 1000}])
    def test_power_of_two_sizes(self, sizes):
        """The declared tables must be indexable by a bit-slice; the
        calibrated ``footprint_scale`` index space is not checked."""
        with pytest.raises(ValueError, match="powers of two"):
            StoreSets(**sizes)
        StoreSets(footprint_scale=3)


class TestEndToEnd:
    def test_runs_on_trace(self, perlbench_trace):
        ss = StoreSets()
        loads = drive_predictor(ss, perlbench_trace)
        assert loads > 1000
        assert ss.violations_trained > 0

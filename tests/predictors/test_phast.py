"""Tests for the PHAST baseline."""

import pytest

from repro.predictors.base import ActualOutcome, PredictionKind
from repro.predictors.phast import Phast
from repro.trace.uop import BypassClass, MicroOp, OpClass

from tests.conftest import drive_predictor, small_trace


def load_uop(seq=100, pc=0x400100):
    return MicroOp(seq, pc, OpClass.LOAD, address=0x1000, size=8)


def dep(distance=3, branches_between=0):
    return ActualOutcome(distance=distance, store_seq=1,
                         bypass=BypassClass.DIRECT,
                         branches_between=branches_between)


def nodep():
    return ActualOutcome(distance=0, store_seq=None, bypass=BypassClass.NONE)


class TestStructure:
    def test_size_is_14_5_kib(self):
        assert Phast().storage_kib == pytest.approx(14.5)

    def test_never_predicts_smb(self):
        assert not Phast().supports_smb

    def test_eight_tables(self):
        assert len(Phast().bank) == 8


class TestAllocationPolicy:
    def test_allocation_table_from_branch_count(self):
        """PHAST's signature: context length covers the store->load branch
        count."""
        p = Phast()
        assert p._allocation_table(0) == 0
        assert p._allocation_table(1) == 1   # history 2 covers 1
        assert p._allocation_table(2) == 1
        assert p._allocation_table(3) == 2   # history 4
        assert p._allocation_table(10) == 4  # history 16
        assert p._allocation_table(1000) == 7  # clamped to last

    def test_missed_dep_allocates_at_branch_table(self):
        p = Phast()
        uop = load_uop()
        pred = p.predict(uop)
        assert pred.kind is PredictionKind.NO_DEP
        p.train(uop, pred, dep(branches_between=3))
        assert p.bank[2].occupancy() == 1

    def test_zero_branches_lands_in_pc_table(self):
        """The Fig. 3 pathology: with no branches between store and load,
        PHAST allocates in the PC-only table and cannot use the pre-store
        branch context."""
        p = Phast()
        uop = load_uop()
        p.train(uop, p.predict(uop), dep(branches_between=0))
        assert p.bank[0].occupancy() == 1


class TestPrediction:
    def test_learns_dependence(self):
        p = Phast()
        uop = load_uop()
        p.train(uop, p.predict(uop), dep(distance=5))
        pred = p.predict(uop)
        assert pred.kind is PredictionKind.MDP
        assert pred.distance == 5

    def test_predicts_on_any_tag_hit(self):
        """Usefulness does not gate predictions — the source of PHAST's
        false-dependence problem (Fig. 8)."""
        p = Phast()
        uop = load_uop()
        p.train(uop, p.predict(uop), dep())
        # Drain usefulness with false dependencies.
        for _ in range(20):
            pred = p.predict(uop)
            p.train(uop, pred, nodep())
        # Entry still predicts the dependence.
        assert p.predict(uop).kind is PredictionKind.MDP

    def test_false_dep_only_decays(self):
        p = Phast()
        uop = load_uop()
        p.train(uop, p.predict(uop), dep())
        entry = next(iter(p.bank[0].entries()))[2]
        before = entry.usefulness
        p.train(uop, p.predict(uop), nodep())
        assert entry.usefulness == before - 1
        # Crucially: no new entries were allocated anywhere.
        total = sum(t.occupancy() for t in p.bank.tables)
        assert total == 1

    def test_correct_prediction_strengthens(self):
        p = Phast()
        uop = load_uop()
        p.train(uop, p.predict(uop), dep())
        entry = next(iter(p.bank[0].entries()))[2]
        before = entry.usefulness
        p.train(uop, p.predict(uop), dep())
        assert entry.usefulness == before + 1

    def test_wrong_distance_reallocates(self):
        p = Phast()
        uop = load_uop()
        p.train(uop, p.predict(uop), dep(distance=3, branches_between=5))
        p.train(uop, p.predict(uop), dep(distance=9, branches_between=5))
        assert any(
            e.distance == 9
            for t in p.bank.tables for _, _, e in t.entries()
        )


class TestReplacement:
    def test_protected_set_decrements_lru_victim(self):
        """With every way useful, PHAST ages the LRU way instead of
        evicting."""
        p = Phast(entries_per_table=4)  # 1 set per table
        uop = load_uop()
        indices, _ = keys = p.bank.reference_keys(uop.pc)
        from repro.predictors.phast import PhastEntry
        for w in range(4):
            p.bank[0].write(indices[0], w,
                            PhastEntry(tag=w + 100, distance=1,
                                       usefulness=5, lru=w))
        p._allocate(keys, branches_between=0, distance=3)
        ways = p.bank[0].ways_at(indices[0])
        assert sorted(e.usefulness for e in ways) == [4, 5, 5, 5]
        assert all(e.tag >= 100 for e in ways)  # nothing evicted


class TestEndToEnd:
    def test_runs_on_trace(self, perlbench_trace):
        p = Phast()
        loads = drive_predictor(p, perlbench_trace)
        assert loads > 1000

    def test_reset(self, perlbench_trace):
        p = Phast()
        drive_predictor(p, perlbench_trace)
        p.reset()
        assert all(t.occupancy() == 0 for t in p.bank.tables)

    def test_more_false_deps_than_mascot(self):
        """Fig. 8's central comparison."""
        from repro.analysis.accuracy import AccuracyStats, classify
        from repro.predictors.mascot import Mascot

        trace = small_trace("perlbench1", 30_000)

        def false_deps(predictor):
            stats = AccuracyStats()
            for _, pred, actual in drive_predictor(predictor, trace,
                                                   collect=True):
                stats.record(classify(pred, actual))
            return stats.false_dependencies

        assert false_deps(Phast()) > 2 * false_deps(Mascot())

"""Tests for the prediction-only and timing runners."""

import pytest

from repro.experiments.runner import (
    TraceCache,
    default_cache,
    run_prediction_only,
    run_timing,
)
from repro.experiments.suite import PREDICTORS, make_predictor
from repro.core.config import GOLDEN_COVE
from repro.core.pipeline import Pipeline
from repro.predictors.mascot import Mascot
from repro.predictors.perfect import PerfectMDP
from repro.predictors.phast import Phast
from repro.trace.uop import BypassClass, MicroOp, OpClass

from tests.conftest import small_trace


class TestTraceCache:
    def test_same_key_same_object(self):
        cache = TraceCache()
        t1 = cache.get("exchange2", 2000)
        t2 = cache.get("exchange2", 2000)
        assert t1 is t2

    def test_different_key_different_trace(self):
        cache = TraceCache()
        t1 = cache.get("exchange2", 2000)
        t2 = cache.get("exchange2", 2000, trace_seed=9)
        assert t1 is not t2

    def test_clear(self):
        cache = TraceCache()
        t1 = cache.get("exchange2", 2000)
        cache.clear()
        assert cache.get("exchange2", 2000) is not t1

    def test_default_cache_is_shared(self):
        assert default_cache() is default_cache()


class TestPredictionOnly:
    def test_counts_every_load(self):
        trace = small_trace("perlbench1", 10_000)
        result = run_prediction_only(trace, Mascot())
        expected = sum(1 for u in trace if u.is_load)
        assert result.accuracy.loads == expected
        assert result.accuracy.instructions == len(trace)

    def test_perfect_predictor_never_wrong(self):
        trace = small_trace("perlbench1", 10_000)
        result = run_prediction_only(trace, PerfectMDP())
        assert result.accuracy.mispredictions == 0

    def test_table_distribution_collected(self):
        trace = small_trace("perlbench1", 10_000)
        predictor = Mascot()
        result = run_prediction_only(trace, predictor)
        assert len(result.predictions_per_table) == 9  # 8 tables + base
        assert sum(result.predictions_per_table) == result.accuracy.loads

    def test_f1_recording(self):
        trace = small_trace("perlbench1", 8_000)
        predictor = Mascot(track_f1=True)
        result = run_prediction_only(trace, predictor, f1_period=1000)
        assert result.f1_profile is not None
        assert result.f1_profile.periods >= 1

    def test_f1_requires_mascot(self):
        trace = small_trace("perlbench1", 2_000)
        with pytest.raises(TypeError):
            run_prediction_only(trace, Phast(), f1_period=1000)

    def test_deterministic(self):
        trace = small_trace("gcc1", 8_000)
        r1 = run_prediction_only(trace, Mascot())
        r2 = run_prediction_only(trace, Mascot())
        assert r1.accuracy.outcome_counts == r2.accuracy.outcome_counts


class TestWarmup:
    def test_partial_warmup_denominator(self):
        """Measured instructions are exactly the post-warmup region."""
        trace = small_trace("perlbench1", 10_000)
        warmup = 4_000
        result = run_prediction_only(trace, Mascot(), warmup=warmup)
        assert result.accuracy.instructions == len(trace) - warmup
        expected = sum(1 for u in trace if u.is_load and u.seq >= warmup)
        assert result.accuracy.loads == expected

    def test_warmup_covering_whole_trace(self):
        """Regression: warmup >= len(trace) used to fabricate a phantom
        instruction (max(..., 1)), reporting instructions=1 and an MPKI
        with a bogus denominator.  An all-warmup run measures nothing."""
        trace = small_trace("perlbench1", 5_000)
        result = run_prediction_only(trace, Mascot(), warmup=len(trace))
        assert result.accuracy.instructions == 0
        assert result.accuracy.loads == 0
        assert result.accuracy.mispredictions == 0
        assert result.accuracy.mpki() == 0.0

    def test_warmup_beyond_trace_length(self):
        trace = small_trace("perlbench1", 2_000)
        result = run_prediction_only(trace, Mascot(),
                                     warmup=len(trace) + 10_000)
        assert result.accuracy.instructions == 0
        assert result.accuracy.mpki() == 0.0

    def test_zero_warmup_unchanged(self):
        trace = small_trace("perlbench1", 5_000)
        result = run_prediction_only(trace, Mascot(), warmup=0)
        assert result.accuracy.instructions == len(trace)

    def test_timing_warmup_covering_whole_trace(self):
        """Regression: both timing engines reported a phantom measured
        instruction (accuracy.instructions == 1) for an all-warmup run.
        Checks ``run_timing`` (batched) and the scalar oracle."""
        trace = small_trace("perlbench1", 2_000)
        for stats in (
                run_timing(trace, Mascot(), measure_from=len(trace)),
                Pipeline(Mascot()).run(trace, measure_from=len(trace))):
            assert stats.instructions == 0
            assert stats.accuracy.instructions == 0
            assert stats.accuracy.loads == 0
            assert stats.accuracy.mpki() == 0.0

    def test_mpki_still_rejects_inconsistent_zero(self):
        """A zero denominator with recorded mispredictions is an
        accounting bug, not an empty run, and must keep raising."""
        trace = small_trace("perlbench1", 5_000)
        result = run_prediction_only(trace, Mascot())
        assert result.accuracy.mispredictions > 0
        with pytest.raises(ValueError):
            result.accuracy.mpki(0)


class _HintSpy(PerfectMDP):
    """The perfect predictor, recording each load's training hints."""

    def __init__(self):
        super().__init__()
        self.hints = []

    def update(self, *args):
        self.hints.append(args[-2:])  # (branches_between, store_pc)


class TestPruneHorizon:
    """Dependences far older than any generated trace produces: the
    prediction-only replay once pruned its store maps past a 2048-seq
    horizon; its store window now spans the whole trace."""

    def _long_distance_trace(self, filler_stores=4_300, branches=0):
        """A load whose producing store is thousands of stores back.

        Store seq 0 writes 0x1000; ``branches`` conditional branches and
        then ``filler_stores`` unrelated stores follow; finally a load
        reads 0x1000.  The dependence annotation travels on the load
        itself.
        """
        uops = [MicroOp(seq=0, pc=0x400, op=OpClass.STORE,
                        address=0x1000, size=8)]
        for _ in range(branches):
            uops.append(MicroOp(seq=len(uops), pc=0x480,
                                op=OpClass.BRANCH_COND, taken=True))
        for i in range(1, filler_stores + 1):
            uops.append(MicroOp(seq=len(uops), pc=0x500 + 4 * i,
                                op=OpClass.STORE,
                                address=0x8000 + 16 * i, size=8))
        uops.append(MicroOp(
            seq=len(uops), pc=0x9000, op=OpClass.LOAD,
            address=0x1000, size=8,
            store_distance=filler_stores + 1, dep_store_seq=0,
            bypass=BypassClass.DIRECT,
        ))
        return uops

    def test_pruned_store_does_not_break_classification(self):
        """Ground truth is read from the load's annotations, never the
        replay's store bookkeeping: the oracle stays perfect for a store
        thousands of stores back."""
        trace = self._long_distance_trace()
        result = run_prediction_only(trace, PerfectMDP())
        assert result.accuracy.loads == 1
        assert result.accuracy.mispredictions == 0

    def test_below_trigger_identical_to_above(self):
        """Oracle accuracy is identical for a near and a far store
        (either side of the old 4096-entry prune trigger)."""
        short = run_prediction_only(self._long_distance_trace(100),
                                    PerfectMDP())
        long = run_prediction_only(self._long_distance_trace(4_300),
                                   PerfectMDP())
        assert short.accuracy.mispredictions == 0
        assert long.accuracy.mispredictions == 0
        assert short.accuracy.outcome_counts == long.accuracy.outcome_counts

    def test_far_store_gets_exact_hints(self):
        """A store 4,300 stores back still yields the exact
        ``branches_between`` / ``store_pc`` training hints."""
        spy = _HintSpy()
        run_prediction_only(self._long_distance_trace(4_300, branches=3),
                            spy)
        assert spy.hints == [(3, 0x400)]


class TestTiming:
    def test_produces_stats(self):
        trace = small_trace("exchange2", 8_000)
        stats = run_timing(trace, Mascot(), config=GOLDEN_COVE)
        assert stats.instructions == len(trace)
        assert stats.ipc > 0

    def test_deterministic(self):
        trace = small_trace("exchange2", 8_000)
        s1 = run_timing(trace, Mascot())
        s2 = run_timing(trace, Mascot())
        assert s1.cycles == s2.cycles

    def test_accuracy_consistent_with_prediction_mode(self):
        """The two modes replay one event stream: for every registered
        predictor, ``run_timing`` (batched) and the scalar oracle, and a
        cold and a warmed measurement, timing accuracy equals
        prediction-only accuracy field for field (instructions
        included)."""
        trace = small_trace("perlbench1", 3_000)
        for name in sorted(PREDICTORS):
            for warmup in (0, len(trace) // 4):
                want = run_prediction_only(trace, make_predictor(name),
                                           warmup=warmup).accuracy
                if name == "perfect-mdp":
                    assert want.loads and not want.mispredictions
                batched = run_timing(trace, make_predictor(name),
                                     measure_from=warmup)
                scalar = Pipeline(make_predictor(name)).run(
                    trace, measure_from=warmup)
                assert batched.accuracy == want, (name, warmup, "batched")
                assert scalar.accuracy == want, (name, warmup, "scalar")

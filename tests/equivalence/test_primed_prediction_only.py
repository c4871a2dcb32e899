"""The primed prediction-only replay equals the unprimed one.

:func:`repro.experiments.runner.run_prediction_only` primes history-keyed
predictors with the trace's whole branch stream before its loop, so
their table keys come from the closed-form fold plans instead of
per-branch register updates.  :func:`_unprimed_replay` below is the loop
as it was before priming (and before it became the batched engine's
shared :class:`~repro.core.batched.PredictorReplay`), kept here as the
oracle.  It walks every micro-op, calls every hook, and keeps each
store's branch count and PC in plain maps instead of reading the
replay's vectorised hints; the generator's instruction window bounds
every dependence, so the maps need no pruning.  For every registered
predictor the two must return equal :class:`PredictionRunResult`\\ s —
accuracy counts, ``predictions_per_table``, telemetry and F1 profile —
and leave the predictor in the same state.
"""

from __future__ import annotations

from typing import Dict, Optional

import pytest

from repro.analysis.accuracy import OUTCOME_BY_CODE, AccuracyStats
from repro.analysis.f1 import F1Recorder
from repro.experiments.runner import PredictionRunResult, run_prediction_only
from repro.experiments.suite import PREDICTORS, make_predictor
from repro.obs.telemetry import TableTelemetry
from repro.predictors import MASCOT_DEFAULT, Mascot
from repro.predictors.base import PRED_KIND_BY_CODE
from repro.sampling.policy import SamplingPolicy
from repro.sampling.reconstruct import warmed_interval
from repro.sampling.select import Region
from repro.trace.columns import BYPASS_CODES
from repro.trace.fixture_cache import cached_trace
from repro.trace.uop import MicroOp, OpClass

from .test_primed_state import _state

#: Long enough for more than one block of primed load rows.
TRACE_LEN = 5_000


def _unprimed_replay(trace, predictor, f1_period: Optional[int] = None,
                     warmup: int = 0,
                     telemetry: bool = False) -> PredictionRunResult:
    """The prediction-only loop without ``prime`` / ``finish``."""
    recorder = (F1Recorder(predictor, period_loads=f1_period)
                if f1_period is not None else None)
    sink = (predictor.attach_telemetry(TableTelemetry())
            if telemetry else None)
    outcome_counts = [0] * len(OUTCOME_BY_CODE)
    kind_counts = [0] * len(PRED_KIND_BY_CODE)
    branch_count = 0
    store_branch: Dict[int, int] = {}
    store_pc: Dict[int, int] = {}
    for uop in trace:
        op = uop.op
        if op is OpClass.BRANCH_COND:
            predictor.on_branch(uop.pc, uop.taken)
            branch_count += 1
        elif op is OpClass.BRANCH_INDIRECT:
            predictor.on_indirect(uop.pc, uop.target)
            branch_count += 1
        elif uop.is_store:
            predictor.on_store(uop.seq, uop.pc)
            store_branch[uop.seq] = branch_count
            store_pc[uop.seq] = uop.pc
        elif uop.is_load:
            branches_between = 0
            pc_of_store = None
            if uop.has_dependence:
                branches_between = (branch_count
                                    - store_branch[uop.dep_store_seq])
                pc_of_store = store_pc[uop.dep_store_seq]
            kind, _, _, _, outcome = predictor.predict_train(
                uop.seq, uop.pc, branches_between, pc_of_store,
                uop.store_distance, uop.dep_store_seq,
                BYPASS_CODES[uop.bypass])
            if uop.seq >= warmup:
                outcome_counts[outcome] += 1
                kind_counts[kind] += 1
            if recorder is not None:
                recorder.tick()
    stats = AccuracyStats()
    stats.record_codes(outcome_counts, kind_counts)
    stats.instructions = max(len(trace) - warmup, 0)
    return PredictionRunResult(
        accuracy=stats,
        predictions_per_table=list(
            getattr(predictor, "predictions_per_table", [])),
        f1_profile=recorder.finish() if recorder is not None else None,
        telemetry=sink.to_dict() if sink is not None else None,
    )


def _assert_same(trace, make, **kwargs):
    primed = make()
    reference = make()
    got = run_prediction_only(trace, primed, **kwargs)
    want = _unprimed_replay(trace, reference, **kwargs)
    for name in ("accuracy", "predictions_per_table", "f1_profile",
                 "telemetry", "sampling"):
        assert getattr(got, name) == getattr(want, name), name
    assert got == want
    assert _state(primed) == _state(reference)


def _replace(trace, ops, by=OpClass.ALU):
    """``trace`` with every micro-op of class ``ops`` turned into ``by``."""
    return [MicroOp(uop.seq, uop.pc, by, srcs=uop.srcs)
            if uop.op in ops else uop for uop in trace]


@pytest.mark.parametrize("name", sorted(PREDICTORS))
@pytest.mark.parametrize("warmup", [0, TRACE_LEN // 4, TRACE_LEN + 1])
def test_primed_replay_equals_unprimed(name, warmup):
    trace = cached_trace("perlbench1", TRACE_LEN)
    _assert_same(trace, lambda: make_predictor(name), warmup=warmup,
                 telemetry=True)


def test_f1_recording_unchanged_by_priming():
    trace = cached_trace("perlbench1", TRACE_LEN)
    _assert_same(trace, lambda: Mascot(MASCOT_DEFAULT, track_f1=True),
                 f1_period=200, warmup=500)


@pytest.mark.parametrize("name", sorted(PREDICTORS))
@pytest.mark.parametrize("removed", [
    (OpClass.BRANCH_COND, OpClass.BRANCH_INDIRECT),
    (OpClass.LOAD,),
], ids=["no-branches", "no-loads"])
def test_degenerate_traces(name, removed):
    trace = _replace(cached_trace("perlbench1", TRACE_LEN), removed)
    assert not any(uop.op in removed for uop in trace)
    _assert_same(trace, lambda: make_predictor(name), warmup=100,
                 telemetry=True)


@pytest.mark.parametrize("name", sorted(PREDICTORS))
def test_warmed_interval_piece(name):
    trace = cached_trace("perlbench1", TRACE_LEN)
    policy = SamplingPolicy(interval_length=1_000, warmup_intervals=2)
    region = Region(index=3, start=3_000, end=4_000, weight=1.0,
                    cluster_size=1, dispersion=0.0)
    piece, warmup = warmed_interval(trace, region, policy)
    assert piece[0].seq == 0 and warmup == 2_000
    _assert_same(piece, lambda: make_predictor(name), warmup=warmup)


@pytest.mark.parametrize("name", ["mascot", "nosq"])
def test_finish_drops_primed_state(name):
    predictor = make_predictor(name)
    run_prediction_only(cached_trace("perlbench1", TRACE_LEN), predictor)
    owner = predictor if name == "nosq" else predictor.bank
    assert owner._rows is None and owner._plan is None
    assert owner._primed == 0

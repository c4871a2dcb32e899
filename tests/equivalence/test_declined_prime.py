"""A declined ``prime`` keeps every history hook live.

The shared predictor replay (:class:`repro.core.batched.PredictorReplay`)
visits branches only when some hook consumes them.  A history-keyed
predictor whose ``prime`` takes its history over makes its branch hooks
no-ops; one whose ``prime`` declines (the fold-register invariant check
failed) must see every branch, one call per branch, in trace order.
These tests force every fold plan to decline and check, for every
registered predictor, that

* :func:`~repro.experiments.runner.run_prediction_only` equals the
  unprimed event-by-event oracle;
* the batched engine equals the scalar reference engine;
* a spy on ``on_branch`` / ``on_indirect`` sees each branch once.

A replay that skipped branches without asking the predictor fails here.
"""

from __future__ import annotations

from unittest import mock

import pytest

from repro.common.foldplan import FoldPlan
from repro.experiments.runner import run_prediction_only
from repro.experiments.suite import PREDICTORS, make_predictor
from repro.trace.fixture_cache import cached_trace
from repro.trace.uop import OpClass

from .test_golden_equivalence import assert_cell_identical
from .test_primed_prediction_only import TRACE_LEN, _assert_same


@pytest.fixture(autouse=True)
def declined_plans():
    with mock.patch.object(FoldPlan, "for_history", return_value=None):
        yield


@pytest.mark.parametrize("name", sorted(PREDICTORS))
def test_prediction_only_equals_unprimed(name):
    trace = cached_trace("perlbench1", TRACE_LEN)
    _assert_same(trace, lambda: make_predictor(name), warmup=1_000,
                 telemetry=True)


@pytest.mark.parametrize("name", sorted(PREDICTORS))
def test_batched_equals_scalar(name):
    assert_cell_identical("perlbench1", name)


@pytest.mark.parametrize("name", sorted(PREDICTORS))
def test_history_hooks_see_every_branch(name):
    trace = cached_trace("perlbench1", TRACE_LEN)
    predictor = make_predictor(name)
    seen = []

    def spy(hook):
        original = getattr(predictor, hook)

        def record(pc, outcome):
            seen.append((hook, pc, outcome))
            return original(pc, outcome)
        return record

    predictor.on_branch = spy("on_branch")
    predictor.on_indirect = spy("on_indirect")
    run_prediction_only(trace, predictor, warmup=1_000)
    expected = [("on_branch", uop.pc, uop.taken)
                if uop.op is OpClass.BRANCH_COND
                else ("on_indirect", uop.pc, uop.target)
                for uop in trace if uop.is_branch]
    assert expected
    assert seen == expected

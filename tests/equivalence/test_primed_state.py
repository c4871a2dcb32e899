"""No primed state leaks from a primed run into the next run.

The batched engine and the prediction-only replay prime the predictors
they drive (``prime`` stores a whole run's precomputed keys and fold plan
on the predictor object) and end the run with ``finish``.  A predictor
reused after a primed run must behave exactly as if every earlier run had
been unprimed: here trace A runs through :class:`BatchedPipeline` (or the
primed prediction-only replay), then trace B through the scalar
:class:`Pipeline` on the *same* predictor and branch-predictor objects,
and the stats of both runs, the telemetry counters and the final
predictor state (tables, counters, history registers) must equal those of
running A unprimed (scalar :class:`Pipeline`, or the replay with priming
disabled) and B through :class:`Pipeline`.
"""

from __future__ import annotations

import enum
from collections import deque

import pytest

from repro.branch.tage import TAGEBranchPredictor
from repro.core import BatchedPipeline, Pipeline
from repro.core.batched import PredictorReplay
from repro.experiments import runner
from repro.experiments.suite import make_predictor
from repro.obs.telemetry import TableTelemetry
from repro.trace.fixture_cache import cached_trace

#: Attributes outside the simulated state: the observation sink (compared
#: through its counters) and the memoised classifier.
_NOT_STATE = frozenset({"telemetry", "_classifier"})


def _state(obj):
    """A comparable snapshot of an object graph's simulated state."""
    if obj is None or isinstance(obj, (bool, int, float, str, enum.Enum)):
        return obj
    if isinstance(obj, (list, tuple, deque)):
        return [_state(item) for item in obj]
    if isinstance(obj, dict):
        return {key: _state(value) for key, value in obj.items()}
    fields = dict(getattr(obj, "__dict__", {}))
    for cls in type(obj).__mro__:
        for slot in getattr(cls, "__slots__", ()):
            fields[slot] = getattr(obj, slot)
    return (type(obj).__name__,
            {name: _state(value) for name, value in sorted(fields.items())
             if name not in _NOT_STATE})


def _two_runs(first_engine, predictor_name):
    predictor = make_predictor(predictor_name)
    sink = predictor.attach_telemetry(TableTelemetry())
    branch = TAGEBranchPredictor()
    stats = []
    for engine, trace in ((first_engine, cached_trace("perlbench1", 4_000)),
                          (Pipeline, cached_trace("mcf", 4_000))):
        pipeline = engine(predictor, branch_predictor=branch)
        stats.append(pipeline.run(trace, measure_from=500).to_dict())
    return stats, sink.to_dict(), _state(predictor), _state(branch)


@pytest.mark.parametrize("predictor_name", ["mascot", "nosq", "store-sets"])
def test_batched_then_scalar_equals_scalar_twice(predictor_name):
    batched_first = _two_runs(BatchedPipeline, predictor_name)
    scalar_only = _two_runs(Pipeline, predictor_name)
    for part, got, want in zip(("stats", "telemetry", "predictor",
                                "branch predictor"),
                               batched_first, scalar_only):
        assert got == want, f"{part} differs after a batched run"


def _prediction_only_then_scalar(predictor_name):
    predictor = make_predictor(predictor_name)
    sink = predictor.attach_telemetry(TableTelemetry())
    branch = TAGEBranchPredictor()
    first = runner.run_prediction_only(cached_trace("perlbench1", 4_000),
                                       predictor, warmup=500)
    second = Pipeline(predictor, branch_predictor=branch).run(
        cached_trace("mcf", 4_000), measure_from=500)
    return ([first.to_dict(), second.to_dict()], sink.to_dict(),
            _state(predictor), _state(branch))


@pytest.mark.parametrize("predictor_name", ["mascot", "nosq", "store-sets"])
def test_prediction_only_then_scalar_equals_scalar_twice(predictor_name,
                                                         monkeypatch):
    primed_first = _prediction_only_then_scalar(predictor_name)
    monkeypatch.setattr(PredictorReplay, "prime",
                        lambda replay, inputs: None)
    scalar_only = _prediction_only_then_scalar(predictor_name)
    for part, got, want in zip(("stats", "telemetry", "predictor",
                                "branch predictor"),
                               primed_first, scalar_only):
        assert got == want, f"{part} differs after a primed replay"


def test_finish_drops_primed_rows():
    predictor = make_predictor("mascot")
    branch = TAGEBranchPredictor()
    BatchedPipeline(predictor, branch_predictor=branch).run(
        cached_trace("perlbench1", 2_000))
    assert predictor.bank._rows is None and predictor.bank._plan is None
    assert branch._rows is None and branch._plan is None
    assert branch._ittage._rows is None and branch._ittage._plan is None

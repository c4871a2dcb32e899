"""Golden differential tier: the batched engine is bit-identical.

The batched engine (:class:`repro.core.batched.BatchedPipeline`) exists
purely for speed; the scalar :class:`~repro.core.pipeline.Pipeline` is
the reference.  These tests pin the contract that lets every timing run
go through the batched engine: for any (benchmark, predictor, core) cell
the two engines produce

* bit-identical :class:`~repro.core.stats.PipelineStats` (every field,
  including the nested branch/accuracy breakdowns),
* bit-identical cycle stacks which both sum exactly to the measured
  cycle count, and
* bit-identical :class:`~repro.obs.telemetry.TableTelemetry` counters.

The fast subset below runs in tier 1 on every push.  The full
(profile × predictor-zoo) grid is the same assertion at scale and runs
behind the ``slow`` marker::

    PYTHONPATH=src python -m pytest tests/equivalence -m slow -q

(see EXPERIMENTS.md).  When a cell here fails, the batched engine has
diverged — fix the engine; never relax the comparison.
"""

from __future__ import annotations

import pytest

from repro.core import GOLDEN_COVE, LION_COVE, BatchedPipeline, Pipeline
from repro.experiments.suite import PREDICTORS, make_predictor
from repro.obs.telemetry import TableTelemetry
from repro.trace.fixture_cache import cached_trace
from repro.trace.profiles import suite_names

#: Cell geometry: long enough to exercise warm predictors, squashes and
#: every scoreboard wrap-around, short enough for tier 1.
NUM_UOPS = 6_000
MEASURE_FROM = 1_500

#: Fast tier-1 subset: each predictor family and both workload shapes.
FAST_CELLS = [
    ("perlbench1", "mascot"),
    ("perlbench1", "nosq"),
    ("perlbench1", "perfect-mdp-smb"),
    ("lbm", "mascot-opt"),
    ("lbm", "phast"),
    ("exchange2", "store-sets"),
    ("exchange2", "tage-mdp"),
    ("mcf", "idist+store-sets"),
]


def _run(engine_cls, trace, predictor_name, config):
    predictor = make_predictor(predictor_name)
    sink = predictor.attach_telemetry(TableTelemetry())
    pipeline = engine_cls(predictor, config, accounting=True)
    stats = pipeline.run(trace, measure_from=MEASURE_FROM)
    return pipeline, stats, sink


def _stats_diffs(scalar_stats, batched_stats):
    """Field-by-field comparison; returns the differing field names."""
    diffs = []
    for field in vars(scalar_stats):
        a = getattr(scalar_stats, field)
        b = getattr(batched_stats, field)
        if hasattr(a, "__dict__") and not isinstance(a, (int, float)):
            if vars(a) != vars(b):
                diffs.append(field)
        elif a != b:
            diffs.append(field)
    return diffs


def assert_cell_identical(bench, predictor_name, config=GOLDEN_COVE):
    trace = cached_trace(bench, NUM_UOPS)
    scalar_pipe, scalar_stats, scalar_tel = _run(
        Pipeline, trace, predictor_name, config)
    batched_pipe, batched_stats, batched_tel = _run(
        BatchedPipeline, trace, predictor_name, config)

    diffs = _stats_diffs(scalar_stats, batched_stats)
    assert not diffs, (
        f"{bench} x {predictor_name}: stats fields differ: {diffs}"
    )

    scalar_stack = scalar_pipe.cycle_stack.cycles
    batched_stack = batched_pipe.cycle_stack.cycles
    assert scalar_stack == batched_stack, (
        f"{bench} x {predictor_name}: cycle stacks differ"
    )
    # Both stacks must also account for every measured cycle exactly.
    scalar_pipe.cycle_stack.validate(scalar_stats.cycles)
    batched_pipe.cycle_stack.validate(batched_stats.cycles)

    assert scalar_tel.to_dict() == batched_tel.to_dict(), (
        f"{bench} x {predictor_name}: telemetry counters differ"
    )


class TestFastSubset:
    """Tier-1 slice of the golden grid (runs on every push)."""

    @pytest.mark.parametrize("bench,predictor", FAST_CELLS)
    def test_cell_bit_identical(self, bench, predictor):
        assert_cell_identical(bench, predictor)

    def test_lion_cove_core(self):
        # A second core config: different window/port geometry stresses
        # the phase-B structural modelling.
        assert_cell_identical("perlbench1", "mascot", config=LION_COVE)

    def test_whole_trace_measurement_window(self):
        # measure_from=0 exercises the no-warmup path in both engines.
        trace = cached_trace("lbm", 4_000)
        for engine_cls in (Pipeline, BatchedPipeline):
            predictor = make_predictor("mascot")
            stats = engine_cls(predictor, GOLDEN_COVE).run(trace)
            assert stats.instructions == 4_000


@pytest.mark.slow
class TestFullGrid:
    """Every profile x the whole predictor zoo (slow tier)."""

    @pytest.mark.parametrize("bench", suite_names())
    def test_profile_against_full_zoo(self, bench):
        for predictor in sorted(PREDICTORS):
            assert_cell_identical(bench, predictor)

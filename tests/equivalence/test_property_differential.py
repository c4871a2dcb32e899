"""Property-based differential tests: random traces, both engines.

The golden tier (:mod:`tests.equivalence.test_golden_equivalence`) pins the
engines on the committed benchmark profiles; this module attacks the same
contract with hypothesis-chosen trace geometry — generator seeds, lengths
that don't line up with any window size, measurement offsets — plus the
columnar trace view the batched engine consumes.

All tests run ``derandomize=True`` so the explored seeds are a pure
function of the test source (no run-to-run variance, per the det-* rules).
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core import GOLDEN_COVE, BatchedPipeline, Pipeline
from repro.experiments.suite import make_predictor
from repro.trace.columns import TraceColumns
from repro.trace.fixture_cache import cached_trace
from repro.trace.generator import generate_trace
from repro.trace.profiles import suite_names

from .test_golden_equivalence import _stats_diffs

#: One predictor per family with distinct history/scoreboard usage —
#: enough to exercise every Phase A replay path on random traces.
PROPERTY_PREDICTORS = ("mascot", "nosq", "tage-mdp")

_UOP_FIELDS = ("seq", "pc", "op", "srcs", "taken", "target", "address",
               "size", "addr_src", "store_distance", "dep_store_seq",
               "bypass")


class TestTraceColumns:
    @given(bench=st.sampled_from(sorted(suite_names())),
           num_uops=st.integers(min_value=1, max_value=600))
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_round_trips_every_uop_field(self, bench, num_uops):
        # The columns claim to be a lossless recoding of the trace: -1
        # sentinels for None, enum codes for the enums.  uop_fields() is
        # the decode direction; it must reproduce each MicroOp exactly.
        trace = cached_trace(bench, num_uops)
        cols = TraceColumns.from_trace(trace)
        assert cols.n == len(trace)
        for uop in trace:
            decoded = cols.uop_fields(uop.seq)
            for field in _UOP_FIELDS:
                assert decoded[field] == getattr(uop, field), (
                    f"{bench} uop {uop.seq}: field {field!r} mangled"
                )

    def test_column_dtypes(self):
        cols = TraceColumns.from_trace(cached_trace("perlbench1", 64))
        dtypes = {name: getattr(cols, name).dtype.name for name in (
            "op", "pc", "address", "size", "taken", "target", "addr_src",
            "dep_store_seq", "store_distance", "bypass", "srcs")}
        assert dtypes == {
            "op": "int8", "pc": "int64", "address": "int64",
            "size": "int32", "taken": "bool", "target": "int64",
            "addr_src": "int32", "dep_store_seq": "int32",
            "store_distance": "int32", "bypass": "int8",
            "srcs": "int32",
        }
        assert cols.srcs.shape == (64, 3)

    def test_ensure_memoises_by_identity(self):
        trace = cached_trace("perlbench1", 64)
        assert TraceColumns.ensure(trace) is TraceColumns.ensure(trace)
        # A rebuilt (equal but distinct) trace gets fresh columns.
        rebuilt = list(trace)
        assert TraceColumns.ensure(rebuilt) is not TraceColumns.ensure(trace)


class TestRandomTraceEquivalence:
    @given(bench=st.sampled_from(sorted(suite_names())),
           predictor=st.sampled_from(PROPERTY_PREDICTORS),
           program_seed=st.integers(min_value=0, max_value=2**16),
           trace_seed=st.integers(min_value=0, max_value=2**16),
           num_uops=st.integers(min_value=200, max_value=1_200),
           warmup_fraction=st.sampled_from((0, 4)))
    @settings(max_examples=10, deadline=None, derandomize=True)
    def test_scalar_and_batched_stats_identical(self, bench, predictor,
                                                program_seed, trace_seed,
                                                num_uops, warmup_fraction):
        trace = generate_trace(bench, num_uops, program_seed=program_seed,
                               trace_seed=trace_seed)
        measure_from = num_uops // warmup_fraction if warmup_fraction else 0

        results = []
        for engine_cls in (Pipeline, BatchedPipeline):
            pipeline = engine_cls(make_predictor(predictor), GOLDEN_COVE,
                                  accounting=True)
            stats = pipeline.run(trace, measure_from=measure_from)
            results.append((pipeline, stats))

        (scalar_pipe, scalar_stats), (batched_pipe, batched_stats) = results
        diffs = _stats_diffs(scalar_stats, batched_stats)
        assert not diffs, (
            f"{bench} x {predictor} seeds=({program_seed},{trace_seed}) "
            f"n={num_uops} m={measure_from}: stats fields differ: {diffs}"
        )
        assert scalar_pipe.cycle_stack.cycles == batched_pipe.cycle_stack.cycles
        scalar_pipe.cycle_stack.validate(scalar_stats.cycles)
        batched_pipe.cycle_stack.validate(batched_stats.cycles)

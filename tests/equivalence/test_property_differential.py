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

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import GOLDEN_COVE, BatchedPipeline, Pipeline
from repro.experiments.suite import make_predictor
from repro.trace.columns import Trace, TraceColumns
from repro.trace.fixture_cache import cached_trace
from repro.trace.generator import generate_trace
from repro.trace.profiles import suite_names
from repro.trace.uop import BypassClass, MicroOp, OpClass

from .test_golden_equivalence import _stats_diffs
from .test_primed_state import _state

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
        cols = TraceColumns(trace)
        assert cols.n == len(trace)
        for uop in trace:
            decoded = cols.uop_fields(uop.seq)
            for field in _UOP_FIELDS:
                assert decoded[field] == getattr(uop, field), (
                    f"{bench} uop {uop.seq}: field {field!r} mangled"
                )

    def test_column_dtypes(self):
        cols = TraceColumns(cached_trace("perlbench1", 64))
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


class TestStoreWindowBoundary:
    """Dependences just inside, at and just past the batched engine's
    store window.  Generated traces never reach it (the generator's store
    window is smaller), so the trace is built by hand."""

    @staticmethod
    def _trace(cap):
        uops = []

        def add(op, pc, **fields):
            uops.append(MicroOp(len(uops), pc, op, **fields))

        # An untrained predictor trains on the first load, past the edge.
        for distance in (cap + 1, cap, cap - 1, cap + 1, cap):
            base = 0x100_0000 * distance
            producer = len(uops)
            add(OpClass.STORE, 0x1000, address=base, size=8)
            for k in range(1, distance):
                if k % 16 == 0:
                    add(OpClass.BRANCH_COND, 0x1010, taken=bool(k % 32),
                        target=0x1030)
                add(OpClass.STORE, 0x1004, address=base + 64 * k, size=8)
            add(OpClass.LOAD, 0x1008, address=base, size=8,
                store_distance=distance, dep_store_seq=producer,
                bypass=BypassClass.DIRECT)
            add(OpClass.ALU, 0x100C, srcs=(len(uops) - 1,))
        return Trace.from_uops(uops)

    @pytest.mark.parametrize("predictor",
                             ("perfect-mdp-smb", "store-sets", "phast"))
    def test_scalar_and_batched_agree_at_the_window_edge(self, predictor):
        # The training hints name a store only inside the window: Store
        # Sets' training reads its PC, PHAST's the branches since it.
        trace = self._trace(max(2 * GOLDEN_COVE.sb_size, 256))
        results = []
        for engine_cls in (Pipeline, BatchedPipeline):
            pipeline = engine_cls(make_predictor(predictor), GOLDEN_COVE,
                                  accounting=True)
            results.append((pipeline, pipeline.run(trace)))
        (scalar_pipe, scalar_stats), (batched_pipe, batched_stats) = results
        assert not _stats_diffs(scalar_stats, batched_stats)
        assert scalar_pipe.cycle_stack.cycles == batched_pipe.cycle_stack.cycles
        assert _state(scalar_pipe.predictor) == _state(batched_pipe.predictor)

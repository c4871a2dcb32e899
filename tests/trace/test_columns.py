"""Columns-first traces: the generator's columns are the trace.

:func:`~repro.trace.generator.generate_trace` returns a
:class:`~repro.trace.columns.Trace` whose columns are written directly by
the generator; its :class:`~repro.trace.uop.MicroOp` objects are a lazy
view.  The tests here pin three properties:

* the generated columns equal the columnisation of the object view, for
  every suite benchmark (the object view is validated object by object,
  so this also proves the vectorised invariant check misses nothing the
  generator can emit);
* the vectorised invariant check rejects exactly what ``MicroOp``'s
  constructor rejects, with the same message;
* the batched engine, the prediction-only replay and sampled timing
  never materialise a generated trace's objects.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.batched import BatchedPipeline
from repro.experiments.runner import run_prediction_only, run_timing
from repro.experiments.suite import make_predictor
from repro.sampling import SamplingPolicy
from repro.trace import suite_names
from repro.trace.columns import (
    BYPASS_CODES,
    OP_CODES,
    Trace,
    TraceColumns,
)
from repro.trace.generator import generate_trace
from repro.trace.uop import BypassClass, MicroOp, OpClass

#: Long enough to reach every segment kind of every suite program.
N = 3_000


@pytest.mark.parametrize("name", suite_names())
@pytest.mark.parametrize("trace_seed, windows", [
    (1, {}), (5, {}), (1, {"store_window": 8, "instr_window": 64}),
], ids=["seed1", "seed5", "seed1-small-window"])
def test_generated_columns_equal_object_columnisation(name, trace_seed,
                                                      windows):
    trace = generate_trace(name, N, trace_seed=trace_seed, **windows)
    assert isinstance(trace, Trace) and not trace.materialized
    objects = list(trace)
    assert [uop.seq for uop in objects] == list(range(N))
    assert trace.columns.equals(TraceColumns.from_trace(objects))


class TestTraceView:
    def test_ensure_returns_own_columns(self):
        trace = generate_trace("lbm", 500)
        assert TraceColumns.ensure(trace) is trace.columns
        TraceColumns.clear_memo()
        assert TraceColumns.ensure(trace) is trace.columns

    def test_objects_built_once(self):
        trace = generate_trace("lbm", 500)
        first = trace[10]
        assert trace.materialized
        assert trace[10] is first
        assert trace[2:4] == trace.uops[2:4]
        assert len(trace) == 500

    def test_equality(self):
        a = generate_trace("gcc1", 800)
        b = generate_trace("gcc1", 800)
        assert a == b and not a.materialized
        assert a == list(b)
        assert a != generate_trace("gcc1", 800, trace_seed=2)


def _loads_and_stores(trace: Trace):
    op = trace.columns.op
    return (np.flatnonzero(op == OP_CODES[OpClass.LOAD]),
            np.flatnonzero(op == OP_CODES[OpClass.STORE]),
            np.flatnonzero(op == OP_CODES[OpClass.ALU]))


def _corruptions():
    """(name, column edits) pairs that each break one MicroOp invariant."""
    none = BYPASS_CODES[BypassClass.NONE]
    direct = BYPASS_CODES[BypassClass.DIRECT]
    return [
        ("load-size", lambda c, ld, st, alu: c.size.__setitem__(ld[3], 0)),
        ("store-size", lambda c, ld, st, alu: c.size.__setitem__(st[3], -8)),
        ("distance-without-class", lambda c, ld, st, alu: (
            c.bypass.__setitem__(ld[3], none),
            c.dep_store_seq.__setitem__(ld[3], -1),
            c.store_distance.__setitem__(ld[3], 2))),
        ("class-without-store", lambda c, ld, st, alu: (
            c.bypass.__setitem__(ld[3], direct),
            c.store_distance.__setitem__(ld[3], 1),
            c.dep_store_seq.__setitem__(ld[3], -1))),
        ("store-without-class", lambda c, ld, st, alu: (
            c.bypass.__setitem__(ld[3], none),
            c.store_distance.__setitem__(ld[3], 0),
            c.dep_store_seq.__setitem__(ld[3], 7))),
        ("dep-on-non-load", lambda c, ld, st, alu:
            c.dep_store_seq.__setitem__(alu[3], 7)),
        ("distance-on-non-load", lambda c, ld, st, alu:
            c.store_distance.__setitem__(st[3], 1)),
        ("class-on-non-load", lambda c, ld, st, alu:
            c.bypass.__setitem__(alu[3], direct)),
    ]


@pytest.mark.parametrize("name, corrupt", _corruptions(),
                         ids=[name for name, _ in _corruptions()])
def test_invariant_check_matches_microop(name, corrupt):
    trace = generate_trace("perlbench1", 2_000)
    cols = trace.columns
    corrupt(cols, *_loads_and_stores(trace))
    with pytest.raises(ValueError) as vectorised:
        cols.check_invariants()
    with pytest.raises(ValueError) as per_object:
        cols.uops()
    assert str(vectorised.value) == str(per_object.value)


def test_valid_columns_pass_the_check():
    generate_trace("xz", 2_000).columns.check_invariants()


class TestNeverMaterialised:
    """The column paths leave a generated trace's object view unbuilt."""

    def test_batched_run(self):
        trace = generate_trace("perlbench1", 4_000)
        BatchedPipeline(make_predictor("mascot")).run(trace, measure_from=500)
        assert not trace.materialized

    @pytest.mark.parametrize("name", ["mascot", "store-sets",
                                      "perfect-mdp-smb"])
    def test_prediction_only_run(self, name):
        trace = generate_trace("perlbench1", 4_000)
        run_prediction_only(trace, make_predictor(name), warmup=500)
        assert not trace.materialized

    def test_sampled_timing_run(self):
        trace = generate_trace("perlbench1", 8_000)
        policy = SamplingPolicy(interval_length=1_000, max_k=3,
                                warmup_intervals=1)
        for name in ("mascot", "nosq"):
            run_timing(trace, None, engine="batched", sampling=policy,
                       predictor_factory=lambda: make_predictor(name))
        assert not trace.materialized

    def test_sampled_prediction_run(self):
        trace = generate_trace("perlbench1", 8_000)
        policy = SamplingPolicy(interval_length=1_000, max_k=3,
                                warmup_intervals=1)
        run_prediction_only(trace, None, sampling=policy,
                            predictor_factory=lambda: make_predictor("phast"))
        assert not trace.materialized


def test_trace_uop_fields_round_trip():
    trace = generate_trace("mcf", 1_000)
    for seq in (0, 17, 999):
        fields = trace.columns.uop_fields(seq)
        assert MicroOp(**fields) == trace[seq]
        assert dataclasses.asdict(trace[seq])["seq"] == seq

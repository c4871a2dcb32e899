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
* the batched engine, the prediction-only replay, sampled timing and
  every prediction-only figure never materialise a generated trace's
  objects;
* the storage is compact: a generated trace holds at most 60 bytes per
  micro-op and generating it peaks at no more than 1.25x that;
* the padded source matrix round-trips any number of sources a
  ``MicroOp`` accepts, and the batched engine reads wide rows exactly as
  the scalar engine walks the tuples.
"""

from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.statistics import Histogram
from repro.core import Pipeline
from repro.core.batched import BatchedPipeline
from repro.experiments import figures, runner
from repro.experiments.runner import (
    default_cache,
    run_prediction_only,
    run_timing,
)
from repro.experiments.suite import make_predictor
from repro.sampling import SamplingPolicy
from repro.trace import columns as columns_module
from repro.trace import suite_names
from repro.trace.columns import (
    BYPASS_CODES,
    MAX_UOPS,
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


def test_invariant_check_finds_a_later_chunk(monkeypatch):
    # The check runs chunk by chunk; an offence past the first chunk must
    # still be found and reported with its absolute sequence number.
    monkeypatch.setattr(columns_module, "_CHECK_CHUNK", 256)
    trace = generate_trace("perlbench1", 2_000)
    cols = trace.columns
    loads, _, _ = _loads_and_stores(trace)
    late = int(loads[loads > 1_000][0])
    cols.size[late] = 0
    with pytest.raises(ValueError) as vectorised:
        cols.check_invariants()
    with pytest.raises(ValueError) as per_object:
        cols.uops()
    assert str(vectorised.value) == str(per_object.value)
    assert str(late) in str(vectorised.value)


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
            run_timing(trace, None, sampling=policy,
                       predictor_factory=lambda: make_predictor(name))
        assert not trace.materialized

    def test_sampled_prediction_run(self):
        trace = generate_trace("perlbench1", 8_000)
        policy = SamplingPolicy(interval_length=1_000, max_k=3,
                                warmup_intervals=1)
        run_prediction_only(trace, None, sampling=policy,
                            predictor_factory=lambda: make_predictor("phast"))
        assert not trace.materialized

    # Fig. 2's check is in test_fig2_equals_object_walk.  ``traces`` is
    # one per benchmark and core geometry (Fig. 12 sweeps two cores).
    @pytest.mark.parametrize("figure, traces", [
        (lambda b, n: figures.fig7_ipc_full(b, n), 2),
        (lambda b, n: figures.fig8_mispredictions(b, n), 2),
        (lambda b, n: figures.fig9_ipc_mdp_only(b, n), 2),
        (lambda b, n: figures.fig10_prediction_mix(b, n), 2),
        (lambda b, n: figures.fig11_ablation(b, n), 2),
        (lambda b, n: figures.fig12_future_architectures(b, n), 4),
        (lambda b, n: figures.fig13_table_usage(b, n), 2),
        (lambda b, n: figures.fig14_f1_ranking(b, n, period_loads=200), 2),
        (lambda b, n: figures.fig15_mascot_opt(b, n), 2),
    ], ids=["fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
            "fig14", "fig15"])
    def test_figure(self, figure, traces, monkeypatch):
        generated = []

        def recording_generate(*args, **kwargs):
            generated.append(generate_trace(*args, **kwargs))
            return generated[-1]

        monkeypatch.setattr(runner, "generate_trace", recording_generate)
        default_cache().clear()
        try:
            figure(["lbm", "perlbench1"], 1_500)
        finally:
            default_cache().clear()
        assert len(generated) == traces
        assert not any(trace.materialized for trace in generated)


def _fig2_object_walk(trace):
    """The object-by-object histogram Fig. 2 used to compute, kept as the
    oracle for the column version."""
    histogram = Histogram(figures._SMB_BUCKETS)
    loads = 0
    for uop in trace:
        if not uop.is_load:
            continue
        loads += 1
        if uop.has_dependence:
            histogram.add(figures._CLASS_TO_BUCKET[uop.bypass])
    return histogram.percentages(denominator=loads)


def test_fig2_equals_object_walk():
    benchmarks = ["perlbench1", "mcf", "xz", "lbm"]
    default_cache().clear()
    try:
        result = figures.fig2_smb_opportunities(benchmarks, num_uops=2_000)
        for bench in benchmarks:
            assert not default_cache().get(bench, 2_000).materialized
    finally:
        default_cache().clear()
    for bench in benchmarks:
        oracle = _fig2_object_walk(generate_trace(bench, 2_000))
        assert result.percentages[bench] == oracle, bench


class TestCompactStorage:
    """Nothing a trace holds is a Python object per micro-op."""

    N = 50_000
    MAX_BYTES_PER_UOP = 60
    MAX_PEAK_OVER_HELD = 1.25

    def test_held_and_peak_bytes(self):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            trace = generate_trace("xz", self.N)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        held = trace.columns.nbytes
        assert held / self.N <= self.MAX_BYTES_PER_UOP
        # nbytes accounts for what the trace really keeps alive.
        assert (retained - base) / self.N <= self.MAX_BYTES_PER_UOP
        assert (peak - base) <= self.MAX_PEAK_OVER_HELD * held

    def test_length_guard(self):
        # Rejected before any buffer is allocated.
        with pytest.raises(ValueError, match="int32"):
            generate_trace("lbm", MAX_UOPS + 1)
        cols = generate_trace("lbm", 100).columns
        with pytest.raises(ValueError, match="int32"):
            TraceColumns.from_arrays(
                cols.srcs, MAX_UOPS - 50,
                **{name: getattr(cols, name) for name in (
                    "op", "pc", "taken", "target", "address", "size",
                    "addr_src", "store_distance", "dep_store_seq",
                    "bypass")})


def _hand_built(rows, load_every):
    """Micro-ops with the given source lists (reduced to earlier seqs);
    every ``load_every``-th one is a load, so sources may be loads."""
    trace = []
    for seq, row in enumerate(rows):
        srcs = tuple(s % seq for s in row) if seq else ()
        if seq % load_every == 1:
            trace.append(MicroOp(seq, 0x400000 + 4 * seq, OpClass.LOAD,
                                 srcs=srcs, address=0x1000 + 8 * seq,
                                 size=8))
        else:
            trace.append(MicroOp(seq, 0x400000 + 4 * seq, OpClass.ALU,
                                 srcs=srcs))
    return trace


_SOURCE_ROWS = st.lists(st.lists(st.integers(0, 2**20), max_size=5),
                        min_size=1, max_size=60)


class TestSourceLayout:
    """Hand-built traces with 0-5 sources per micro-op."""

    @given(rows=_SOURCE_ROWS, load_every=st.integers(2, 5))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_round_trip(self, rows, load_every):
        trace = _hand_built(rows, load_every)
        cols = TraceColumns(trace)
        assert cols.srcs.shape == (
            len(trace), max([3] + [len(uop.srcs) for uop in trace]))
        assert cols.uops() == trace
        assert cols.src_tuples() == [uop.srcs for uop in trace]
        for uop in trace:
            assert cols.uop_fields(uop.seq) == dataclasses.asdict(uop)
        assert cols.equals(TraceColumns(cols.uops()))

    @given(rows=_SOURCE_ROWS, load_every=st.integers(2, 5))
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_batched_reads_wide_rows_like_scalar(self, rows, load_every):
        trace = _hand_built(rows, load_every)
        results = [engine(make_predictor("nosq")).run(trace)
                   for engine in (Pipeline, BatchedPipeline)]
        assert vars(results[0]) == vars(results[1])

    def test_negative_source_rejected(self):
        trace = [MicroOp(0, 0x400000, OpClass.ALU, srcs=(-1,))]
        with pytest.raises(ValueError, match="non-negative"):
            TraceColumns(trace)


def test_trace_uop_fields_round_trip():
    trace = generate_trace("mcf", 1_000)
    for seq in (0, 17, 999):
        fields = trace.columns.uop_fields(seq)
        assert MicroOp(**fields) == trace[seq]
        assert dataclasses.asdict(trace[seq])["seq"] == seq

"""Sampled timing reconstruction: fidelity, oracle agreement, warmup."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import GOLDEN_COVE
from repro.core.pipeline import Pipeline
from repro.experiments.runner import run_timing
from repro.experiments.suite import make_predictor
from repro.memory.warmup import WarmupIndex
from repro.predictors import PerfectMDP
from repro.sampling import SamplingPolicy, select_regions
from repro.sampling.reconstruct import (
    Interval,
    _warm_hierarchy_at,
    rebase_interval,
    run_sampled_prediction,
    run_sampled_timing,
    warmed_interval,
)
from repro.trace.columns import Trace, TraceColumns
from repro.trace.uop import BypassClass, MicroOp, OpClass

from tests.conftest import small_trace


def policy(**kwargs):
    kwargs.setdefault("interval_length", 10_000)
    kwargs.setdefault("max_k", 4)
    kwargs.setdefault("warmup_intervals", 2)
    return SamplingPolicy(**kwargs)


def mascot():
    return make_predictor("mascot")


def scalar_regions(trace, sampled, sampling_policy):
    """Replay each selected region on the scalar oracle: the same warmed
    piece, from the same functionally warmed hierarchy, measured from the
    same micro-op.  Yields ``(stats, cycle_stack)`` per region."""
    index = (WarmupIndex.from_trace(trace, GOLDEN_COVE.memory.line_size)
             if sampling_policy.functional_warmup else None)
    for region in sampled.selection.regions:
        piece, warmup = warmed_interval(trace, region, sampling_policy)
        hierarchy = _warm_hierarchy_at(GOLDEN_COVE, index,
                                       region.start - warmup)
        pipe = Pipeline(mascot(), GOLDEN_COVE, hierarchy=hierarchy,
                        accounting=True)
        yield pipe.run(piece, measure_from=warmup), pipe.cycle_stack


class TestReconstructionFidelity:
    def test_tracks_full_run_within_ci(self):
        trace = small_trace("mcf", 120_000)
        sampled = run_sampled_timing(trace, mascot, policy())
        full = run_timing(trace, mascot())
        error = abs(sampled.stats.ipc - full.ipc) / full.ipc
        assert error < 0.05
        lo, hi = sampled.ipc_ci
        assert lo <= sampled.stats.ipc <= hi
        assert lo <= full.ipc <= hi

    def test_counters_scale_to_full_trace(self):
        trace = small_trace("xz", 60_000)
        sampled = run_sampled_timing(trace, mascot, policy())
        stats = sampled.stats
        assert stats.instructions == len(trace)
        assert stats.accuracy.instructions == len(trace)
        assert stats.cycles > 0
        meta = stats.sampling
        assert meta["metric"] == "ipc"
        assert meta["estimate"] == pytest.approx(stats.ipc, rel=1e-6)
        assert meta["ci"][0] < meta["estimate"] < meta["ci"][1]
        assert meta["k"] == sampled.selection.k
        assert meta["simulated_uops"] == sampled.simulated_uops
        assert sampled.simulated_uops < len(trace)

    def test_engines_reconstruct_identically(self):
        """Every region the batched reconstruction measured equals the
        scalar oracle's replay of it, so the reconstruction built from
        them is the oracle's too."""
        trace = small_trace("perlbench1", 60_000)
        sampled = run_sampled_timing(trace, mascot, policy())
        replays = list(scalar_regions(trace, sampled, policy()))
        assert len(replays) == sampled.selection.k
        for i, (stats, _) in enumerate(replays):
            assert stats == sampled.region_stats[i], i

    def test_functional_warmup_off_still_reconstructs(self):
        trace = small_trace("lbm", 60_000)
        cold = run_sampled_timing(
            trace, mascot, policy(functional_warmup=False))
        assert cold.stats.instructions == len(trace)
        assert cold.stats.sampling["policy"]["functional_warmup"] is False

    def test_ipc_estimate_close_to_full_run(self):
        """The sampled estimate approximates the full-trace IPC."""
        trace = small_trace("xz", 24_000)
        full = run_timing(trace, PerfectMDP()).ipc
        sampled = run_sampled_timing(
            trace, PerfectMDP, policy(interval_length=4000, max_k=3))
        assert sampled.stats.ipc == pytest.approx(full, rel=0.2)

    def test_warmup_improves_ipc_estimate(self):
        """Replaying the intervals before each region warms the predictor
        and pipeline state the region starts from; a cold replay biases
        the estimate."""
        trace = small_trace("xz", 24_000)
        full = run_timing(trace, PerfectMDP()).ipc

        def estimate(warmup_intervals):
            return run_sampled_timing(
                trace, PerfectMDP,
                policy(interval_length=4000, max_k=3,
                       warmup_intervals=warmup_intervals)).stats.ipc

        assert abs(estimate(1) - full) <= abs(estimate(0) - full)


class TestAccountingReconstruction:
    def test_stack_sums_to_cycles_and_engines_agree(self):
        trace = small_trace("mcf", 60_000)
        sampled = run_sampled_timing(trace, mascot, policy(),
                                     accounting=True)
        assert sampled.stack is not None
        assert sum(sampled.stack.cycles.values()) == sampled.stats.cycles
        assert all(c >= 0 for c in sampled.stack.cycles.values())
        assert len(sampled.region_stacks) == sampled.selection.k
        for i, (stats, stack) in enumerate(
                scalar_regions(trace, sampled, policy())):
            assert stats == sampled.region_stats[i], i
            assert stack.cycles == sampled.region_stacks[i].cycles, i

    def test_accounting_off_leaves_stack_unset(self):
        trace = small_trace("mcf", 40_000)
        sampled = run_sampled_timing(trace, mascot, policy())
        assert sampled.stack is None
        assert sampled.region_stacks is None


class TestWarmedInterval:
    def test_piece_is_warmup_plus_region(self):
        trace = small_trace("xz", 60_000)
        pol = policy()
        selection = select_regions(trace, pol)
        for region in selection.regions:
            piece, warmup = warmed_interval(trace, region, pol)
            assert len(piece) == warmup + pol.interval_length
            expected = min(region.start,
                           pol.warmup_intervals * pol.interval_length)
            assert warmup == expected
            # The measured tail replays exactly the region's code.
            region_pcs = [u.pc for u in trace[region.start:region.end]]
            assert [u.pc for u in piece[warmup:]] == region_pcs

    def test_earliest_region_gets_clipped_warmup(self):
        trace = small_trace("xz", 30_000)
        pol = policy(interval_length=10_000, warmup_intervals=4)
        selection = select_regions(trace, pol)
        first = selection.regions[0]
        piece, warmup = warmed_interval(trace, first, pol)
        assert warmup == first.start  # clipped at the start of the trace
        assert len(piece) == first.end

    def test_negative_warmup_rejected(self):
        with pytest.raises(ValueError, match="warmup_intervals"):
            policy(warmup_intervals=-1)


class TestRebaseInterval:
    def test_renumbers_from_zero(self):
        trace = small_trace("perlbench1", 8_000)
        piece = rebase_interval(trace, Interval(0, 2000, 4000))
        assert [u.seq for u in piece] == list(range(2000))

    def test_dataflow_stays_internal(self):
        trace = small_trace("perlbench1", 8_000)
        piece = rebase_interval(trace, Interval(0, 2000, 4000))
        for uop in piece:
            for src in uop.srcs:
                assert 0 <= src < uop.seq
            if uop.addr_src is not None:
                assert 0 <= uop.addr_src < uop.seq

    def test_out_of_slice_dependences_dropped(self):
        trace = small_trace("perlbench1", 8_000)
        piece = rebase_interval(trace, Interval(0, 2000, 4000))
        for uop in piece:
            if uop.is_load and uop.has_dependence:
                assert 0 <= uop.dep_store_seq < uop.seq
            if uop.is_load and not uop.has_dependence:
                assert uop.bypass is BypassClass.NONE

    def test_rebase_runs_through_pipeline(self):
        from repro.core import Pipeline
        from repro.predictors import Mascot

        trace = small_trace("perlbench1", 8_000)
        piece = rebase_interval(trace, Interval(0, 3000, 6000))
        stats = Pipeline(Mascot()).run(piece)
        assert stats.instructions == 3000

    @given(offset=st.integers(min_value=0, max_value=5_000))
    @settings(max_examples=20, deadline=None, derandomize=True)
    def test_offset_is_a_pure_shift(self, offset):
        """A non-zero offset must shift every sequence reference by the
        same amount and change nothing else — rebased slices are stitched
        after ``offset`` other micro-ops (sampled warmup prefixes)."""
        trace = small_trace("perlbench1", 8_000)
        base = rebase_interval(trace, Interval(0, 2000, 4000))
        shifted = rebase_interval(trace, Interval(0, 2000, 4000),
                                  offset=offset)
        assert len(shifted) == len(base)
        for a, b in zip(base, shifted):
            assert b.seq == a.seq + offset
            assert b.srcs == tuple(s + offset for s in a.srcs)
            assert b.addr_src == (None if a.addr_src is None
                                  else a.addr_src + offset)
            if a.dep_store_seq is None or a.dep_store_seq < 0:
                assert b.dep_store_seq == a.dep_store_seq
            else:
                assert b.dep_store_seq == a.dep_store_seq + offset
            assert (b.pc, b.op, b.address, b.bypass) \
                == (a.pc, a.op, a.address, a.bypass)

    def test_zero_offset_is_the_default(self):
        trace = small_trace("perlbench1", 8_000)
        assert rebase_interval(trace, Interval(0, 2000, 4000)) \
            == rebase_interval(trace, Interval(0, 2000, 4000), offset=0)

    def test_negative_offset_rejected(self):
        trace = small_trace("perlbench1", 8_000)
        with pytest.raises(ValueError):
            rebase_interval(trace, Interval(0, 2000, 4000), offset=-1)


def _object_rebase(trace, interval, offset=0):
    """The object-by-object rebase the column version replaced, kept as
    the oracle: every micro-op rebuilt with its in-slice references
    shifted and the rest dropped."""
    start = interval.start
    delta = offset - start
    out = []
    for seq in range(interval.start, interval.end):
        uop = trace[seq]
        in_slice_dep = (uop.dep_store_seq is not None
                        and uop.dep_store_seq >= start)
        out.append(MicroOp(
            seq=uop.seq + delta, pc=uop.pc, op=uop.op,
            srcs=tuple(s + delta for s in uop.srcs if s >= start),
            addr_src=(uop.addr_src + delta
                      if uop.addr_src is not None and uop.addr_src >= start
                      else None),
            taken=uop.taken, target=uop.target, address=uop.address,
            size=uop.size,
            store_distance=uop.store_distance if in_slice_dep else 0,
            dep_store_seq=(uop.dep_store_seq + delta) if in_slice_dep
            else None,
            bypass=uop.bypass if in_slice_dep else BypassClass.NONE,
        ))
    return out


class TestColumnRebase:
    """The column slice equals the object rebase, field for field."""

    @given(bounds=st.tuples(st.integers(0, 6_000), st.integers(1, 2_000)),
           offset=st.one_of(st.just(0), st.integers(1, 10_000)))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_equals_object_rebase(self, bounds, offset):
        trace = small_trace("mcf", 8_000)
        start, length = bounds
        interval = Interval(0, start, min(start + length, len(trace)))
        piece = rebase_interval(trace, interval, offset=offset)
        assert not piece.materialized
        assert piece == _object_rebase(trace, interval, offset)

    def test_hand_built_list_input(self):
        objects = list(small_trace("perlbench1", 4_000))
        interval = Interval(0, 1_500, 3_000)
        assert rebase_interval(Trace.from_uops(objects), interval) \
            == _object_rebase(objects, interval)

    @given(rows=st.lists(st.lists(st.integers(0, 2**20), max_size=5),
                         min_size=1, max_size=60),
           bounds=st.tuples(st.integers(0, 59), st.integers(1, 60)),
           offset=st.integers(0, 100))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_wide_hand_built_sources(self, rows, bounds, offset):
        # 0-5 sources per micro-op: dropping the out-of-slice ones leaves
        # holes the column rebase must close, in order, and a row that
        # narrows below the matrix width must narrow the matrix too.
        objects = [MicroOp(seq, 0x400000 + 4 * seq, OpClass.ALU,
                           srcs=tuple(s % seq for s in row) if seq else ())
                   for seq, row in enumerate(rows)]
        start = min(bounds[0], len(objects) - 1)
        interval = Interval(0, start, min(start + bounds[1], len(objects)))
        piece = rebase_interval(Trace.from_uops(objects), interval,
                                offset=offset)
        oracle = _object_rebase(objects, interval, offset)
        assert np.array_equal(piece.columns.srcs, TraceColumns(oracle).srcs)
        assert piece == oracle

    def test_offset_slice_cannot_run_alone(self):
        piece = rebase_interval(small_trace("perlbench1", 4_000),
                                Interval(0, 1_000, 2_000), offset=5)
        with pytest.raises(ValueError, match="offset slice"):
            run_timing(piece, mascot())


class TestSampledPrediction:
    def test_mpki_metadata_and_scaled_counts(self):
        trace = small_trace("perlbench1", 60_000)
        result = run_sampled_prediction(trace, mascot, policy())
        assert result.accuracy.instructions == len(trace)
        meta = result.sampling
        assert meta["metric"] == "mpki"
        assert meta["ci"][0] <= meta["estimate"] <= meta["ci"][1]
        assert sum(r["weight"] for r in meta["regions"]) \
            == pytest.approx(1.0)


class TestRunTimingSampledApi:
    def test_returns_reconstruction_with_metadata(self):
        trace = small_trace("mcf", 40_000)
        stats = run_sampled_timing(trace, mascot, policy()).stats
        assert stats.instructions == len(trace)
        assert stats.sampling is not None
        assert stats.sampling["metric"] == "ipc"

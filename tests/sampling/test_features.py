"""Region fingerprints: vectorised features vs a per-uop scalar oracle.

The memory-access vectors are built with flat ``bincount`` tricks; these
tests recompute every feature block with plain Python loops over the
micro-ops and require exact agreement — the vectorisation must be
lossless, not merely close.
"""

import math

import numpy as np
import pytest

from repro.sampling.features import (
    MAV_DEP_BUCKETS,
    MAV_STRIDE_BUCKETS,
    mav_dim,
    memory_access_vectors,
    num_intervals,
    pc_frequency_vectors,
    region_signatures,
)
from repro.trace.columns import BYPASS_CODES, TraceColumns
from repro.trace.uop import MicroOp, OpClass

from tests.conftest import small_trace


def scalar_mav(trace, interval_length):
    """Reference memory-access vectors, one uop at a time."""
    n_regions = len(trace) // interval_length
    used = n_regions * interval_length
    dim = mav_dim()
    stride = np.zeros((n_regions, MAV_STRIDE_BUCKETS))
    lines = [set() for _ in range(n_regions)]
    loads = [0] * n_regions
    deps = [0] * n_regions
    dep_hist = np.zeros((n_regions, MAV_DEP_BUCKETS))
    bypass = np.zeros((n_regions, len(BYPASS_CODES)))

    previous = None  # (region, address) of the last memory access
    for position, uop in enumerate(trace[:used]):
        region = position // interval_length
        if uop.is_load or uop.is_store:
            if previous is not None and previous[0] == region:
                delta = abs(uop.address - previous[1])
                bucket = (0 if delta == 0 else
                          min(int(math.log2(delta)) + 1,
                              MAV_STRIDE_BUCKETS - 1))
                stride[region][bucket] += 1
            previous = (region, uop.address)
            lines[region].add(uop.address >> 6)
        if uop.is_load:
            loads[region] += 1
            if uop.dep_store_seq is not None and uop.dep_store_seq >= 0:
                deps[region] += 1
                distance = max(uop.store_distance, 1)
                dep_hist[region][min(int(math.log2(distance)),
                                     MAV_DEP_BUCKETS - 1)] += 1
                bypass[region][BYPASS_CODES[uop.bypass]] += 1

    out = np.zeros((n_regions, dim))
    for j in range(n_regions):
        s = stride[j].sum()
        out[j, :MAV_STRIDE_BUCKETS] = stride[j] / s if s else 0.0
        out[j, MAV_STRIDE_BUCKETS] = len(lines[j]) / interval_length
        out[j, MAV_STRIDE_BUCKETS + 1] = deps[j] / max(loads[j], 1)
        h = dep_hist[j].sum()
        base = MAV_STRIDE_BUCKETS + 2
        out[j, base:base + MAV_DEP_BUCKETS] = (
            dep_hist[j] / h if h else 0.0)
        b = bypass[j].sum()
        out[j, base + MAV_DEP_BUCKETS:] = bypass[j] / b if b else 0.0
    return out


class TestMemoryAccessVectors:
    @pytest.mark.parametrize("bench", ["mcf", "perlbench1", "lbm"])
    def test_matches_scalar_oracle_exactly(self, bench):
        trace = small_trace(bench, 12_000)
        cols = TraceColumns.ensure(trace)
        vectorised = memory_access_vectors(cols, 3000)
        oracle = scalar_mav(trace, 3000)
        np.testing.assert_array_equal(vectorised, oracle)

    def test_every_feature_in_unit_interval(self):
        cols = TraceColumns.ensure(small_trace("xz", 12_000))
        mav = memory_access_vectors(cols, 2000)
        assert mav.shape == (6, mav_dim())
        assert (mav >= 0.0).all() and (mav <= 1.0).all()


class TestNumIntervals:
    def test_exact_split(self):
        assert num_intervals(2000, 500) == 4

    def test_tail_dropped(self):
        assert num_intervals(2000, 1500) == 1

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            num_intervals(0, 0)


class TestPcFrequencyVectors:
    def test_phases_have_distinct_fingerprints(self):
        # Two code regions that share no PCs, one region each.
        trace = [MicroOp(seq, base + 4 * (seq % 50), OpClass.ALU)
                 for seq, base in enumerate([0x400000] * 1000
                                            + [0x500000] * 1000)]
        vectors = pc_frequency_vectors(TraceColumns.ensure(trace), 1000)
        assert float((vectors[0] * vectors[1]).sum()) == 0.0

    def test_rows_are_distributions(self):
        cols = TraceColumns.ensure(small_trace("mcf", 12_000))
        bbv = pc_frequency_vectors(cols, 3000)
        np.testing.assert_allclose(bbv.sum(axis=1), 1.0)

    def test_rows_normalised(self):
        # Two code regions of 500 uops each, fingerprinted at 250.
        trace = [MicroOp(seq, base + 4 * (seq % 50), OpClass.ALU)
                 for seq, base in enumerate([0x400000] * 500
                                            + [0x500000] * 500)]
        vectors = pc_frequency_vectors(TraceColumns.ensure(trace), 250)
        assert vectors.shape[0] == num_intervals(len(trace), 250) == 4
        for row in vectors:
            assert abs(row.sum() - 1.0) < 1e-9

    def test_empty_trace_raises(self):
        with pytest.raises(ValueError):
            pc_frequency_vectors(TraceColumns.ensure([]), 250)

    def test_counts_match_scalar_oracle(self):
        trace = small_trace("perlbench1", 8_000)
        interval = 2000
        cols = TraceColumns.ensure(trace)
        bbv = pc_frequency_vectors(cols, interval)
        pcs = sorted({u.pc for u in trace})
        column = {pc: i for i, pc in enumerate(pcs)}
        for j in range(len(trace) // interval):
            counts = np.zeros(len(pcs))
            for uop in trace[j * interval:(j + 1) * interval]:
                counts[column[uop.pc]] += 1
            np.testing.assert_array_equal(bbv[j], counts / interval)


class TestRegionSignatures:
    def test_shape_and_tail_dropping(self):
        trace = small_trace("mcf", 10_000)
        signatures = region_signatures(trace, 3000)
        assert signatures.shape[0] == num_intervals(len(trace), 3000) == 3

    def test_no_intervals_raises(self):
        with pytest.raises(ValueError):
            region_signatures(small_trace("mcf", 1_000), 3000)

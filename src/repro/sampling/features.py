"""Vectorised region fingerprints: basic-block + memory-access vectors.

The classic SimPoint feature is the basic-block vector — per-PC execution
frequencies of each fixed-length region.  Alone it is blind to memory
behaviour: two regions executing the same code over different working
sets (streaming vs. resident, dependent vs. independent stores) are
indistinguishable, and exactly those differences dominate IPC in a
memory-dependence study.  Each region therefore also gets a
**memory-access vector**: a stride histogram over consecutive memory
accesses, a cache-line footprint density, and dependence-distance /
bypass-class histograms over its dependent loads.

Everything here is computed from :class:`~repro.trace.columns.TraceColumns`
with ``bincount`` / segment reductions — one pass of numpy per feature
block, no per-uop Python loop.  The central trick: a per-(region, bucket)
count is one flat ``bincount`` over ``region_index * n_buckets + bucket``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..trace.columns import BYPASS_CODES, OP_CODES, TraceColumns
from ..trace.uop import MicroOp, OpClass

__all__ = [
    "MAV_STRIDE_BUCKETS",
    "MAV_DEP_BUCKETS",
    "mav_dim",
    "num_intervals",
    "pc_frequency_vectors",
    "memory_access_vectors",
    "region_signatures",
]

#: Log2 buckets of the absolute address delta between consecutive memory
#: accesses: bucket 0 = same address, bucket b = delta in [2^(b-1), 2^b).
#: The last bucket absorbs everything beyond.
MAV_STRIDE_BUCKETS = 16

#: Log2 buckets of a dependent load's store distance (>= 1 by
#: construction): bucket b = distance in [2^b, 2^(b+1)); last absorbs.
MAV_DEP_BUCKETS = 10

#: Bytes-per-cache-line shift for the footprint feature.
_LINE_SHIFT = 6

#: Exact integer floor(log2): ``searchsorted`` against powers of two
#: avoids float ``log2`` rounding at bucket boundaries.
_POW2 = (np.uint64(1) << np.arange(63, dtype=np.uint64))


def _floor_log2(values: np.ndarray) -> np.ndarray:
    """Elementwise floor(log2(v)) for positive int64 values, exactly."""
    return np.searchsorted(_POW2, values.astype(np.uint64),
                           side="right") - 1


def mav_dim() -> int:
    """Width of one memory-access vector."""
    # stride histogram + footprint density + dependence rate
    # + dependence-distance histogram + bypass-class mix.
    return MAV_STRIDE_BUCKETS + 1 + 1 + MAV_DEP_BUCKETS + len(BYPASS_CODES)


def num_intervals(n: int, interval_length: int) -> int:
    """Full regions in an ``n``-uop trace (the tail is dropped)."""
    if interval_length <= 0:
        raise ValueError("interval length must be positive")
    return n // interval_length


def _bucket_rows(region: np.ndarray, bucket: np.ndarray, n_regions: int,
                 n_buckets: int) -> np.ndarray:
    """(n_regions, n_buckets) counts via one flat bincount."""
    flat = region.astype(np.int64) * n_buckets + bucket.astype(np.int64)
    counts = np.bincount(flat, minlength=n_regions * n_buckets)
    return counts.reshape(n_regions, n_buckets).astype(np.float64)


def _normalise_rows(matrix: np.ndarray) -> np.ndarray:
    """L1-normalise each row in place; all-zero rows stay zero."""
    sums = matrix.sum(axis=1, keepdims=True)
    sums[sums == 0.0] = 1.0
    matrix /= sums
    return matrix


def pc_frequency_vectors(cols: TraceColumns,
                         interval_length: int) -> np.ndarray:
    """L1-normalised per-PC frequency vectors, one row per region.

    The PC axis is ordered by ascending PC (``np.unique``) — a fixed
    permutation of any first-appearance PC order, which no distance
    computation can tell apart.
    """
    n_regions = num_intervals(cols.n, interval_length)
    if n_regions == 0:
        raise ValueError("no intervals to fingerprint")
    used = n_regions * interval_length
    _, pc_ids = np.unique(cols.pc[:used], return_inverse=True)
    region = np.arange(used, dtype=np.int64) // interval_length
    vectors = _bucket_rows(region, pc_ids, n_regions,
                           int(pc_ids.max()) + 1)
    return _normalise_rows(vectors)


def memory_access_vectors(cols: TraceColumns,
                          interval_length: int) -> np.ndarray:
    """One memory-access vector per region; every feature lies in [0, 1].

    Layout per row (see :func:`mav_dim`):

    * ``[0, S)`` — stride histogram: log2-bucketed absolute address
      deltas between consecutive memory accesses within the region,
      normalised to sum to 1 over the region's access pairs;
    * ``[S]`` — footprint density: distinct cache lines touched divided
      by the region length;
    * ``[S+1]`` — dependence rate: dependent loads / loads;
    * ``[S+2, S+2+D)`` — dependence-distance histogram over dependent
      loads' store distances, normalised;
    * ``[S+2+D, ...)`` — bypass-class mix over dependent loads,
      normalised.
    """
    n_regions = num_intervals(cols.n, interval_length)
    if n_regions == 0:
        raise ValueError("no intervals to fingerprint")
    used = n_regions * interval_length
    op = cols.op[:used]
    address = cols.address[:used]

    load_code = np.int8(OP_CODES[OpClass.LOAD])
    store_code = np.int8(OP_CODES[OpClass.STORE])
    mem = np.flatnonzero((op == load_code) | (op == store_code))
    mem_region = mem // interval_length

    # -- stride histogram ------------------------------------------------------
    stride_hist = np.zeros((n_regions, MAV_STRIDE_BUCKETS))
    if len(mem) > 1:
        same = mem_region[1:] == mem_region[:-1]
        delta = np.abs(address[mem[1:]] - address[mem[:-1]])[same]
        pair_region = mem_region[1:][same]
        bucket = np.zeros(len(delta), dtype=np.int64)
        nonzero = delta > 0
        bucket[nonzero] = np.minimum(_floor_log2(delta[nonzero]) + 1,
                                     MAV_STRIDE_BUCKETS - 1)
        stride_hist = _normalise_rows(_bucket_rows(
            pair_region, bucket, n_regions, MAV_STRIDE_BUCKETS))

    # -- footprint density -----------------------------------------------------
    footprint = np.zeros(n_regions)
    if len(mem):
        lines = address[mem] >> _LINE_SHIFT
        order = np.lexsort((lines, mem_region))
        sorted_region = mem_region[order]
        sorted_lines = lines[order]
        first = np.ones(len(mem), dtype=bool)
        first[1:] = ((sorted_region[1:] != sorted_region[:-1])
                     | (sorted_lines[1:] != sorted_lines[:-1]))
        footprint = np.bincount(sorted_region[first],
                                minlength=n_regions).astype(np.float64)
        footprint /= float(interval_length)

    # -- dependence features ---------------------------------------------------
    loads = np.flatnonzero(op == load_code)
    load_region = loads // interval_length
    loads_per_region = np.bincount(load_region, minlength=n_regions)
    dep_mask = cols.dep_store_seq[:used][loads] >= 0
    dep_loads = loads[dep_mask]
    dep_region = load_region[dep_mask]
    deps_per_region = np.bincount(dep_region, minlength=n_regions)
    dep_rate = deps_per_region / np.maximum(loads_per_region, 1)

    dep_hist = np.zeros((n_regions, MAV_DEP_BUCKETS))
    bypass_mix = np.zeros((n_regions, len(BYPASS_CODES)))
    if len(dep_loads):
        distance = cols.store_distance[:used][dep_loads].astype(np.int64)
        bucket = np.minimum(_floor_log2(np.maximum(distance, 1)),
                            MAV_DEP_BUCKETS - 1)
        dep_hist = _normalise_rows(_bucket_rows(
            dep_region, bucket, n_regions, MAV_DEP_BUCKETS))
        bypass_mix = _normalise_rows(_bucket_rows(
            dep_region, cols.bypass[:used][dep_loads].astype(np.int64),
            n_regions, len(BYPASS_CODES)))

    return np.hstack([
        stride_hist,
        footprint[:, None],
        dep_rate[:, None],
        dep_hist,
        bypass_mix,
    ])


def region_signatures(trace: Sequence[MicroOp],
                      interval_length: int) -> np.ndarray:
    """Concatenated BBV + MAV signature matrix, one row per region.

    Both blocks are row-normalised to comparable [0, 1] scales, so the
    euclidean metric the clustering uses weighs code identity and memory
    behaviour on equal footing.
    """
    cols = TraceColumns.ensure(trace)
    bbv = pc_frequency_vectors(cols, interval_length)
    mav = memory_access_vectors(cols, interval_length)
    return np.hstack([bbv, mav])

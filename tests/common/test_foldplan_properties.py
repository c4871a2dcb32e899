"""Differential property tests for the precomputed fold-value plans.

:class:`repro.common.foldplan.FoldPlan` claims that
``series[(length, width)][k]`` equals the live
:class:`~repro.common.history.GlobalHistory` register value after ``k``
incremental ``push_conditional`` calls; :func:`path_series` makes the
same claim against :class:`~repro.common.history.PathHistory.push`, and
:class:`BranchStream` against the ``GlobalHistory`` push stream itself.
Each test here replays the slow incremental oracle bit-for-bit against the
vectorised closed form, over hypothesis-chosen histories and streams.

All tests run ``derandomize=True``: the explored examples are a pure
function of the test source, so the tier is deterministic run to run.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.bitops import fold_bits, mask
from repro.common.foldplan import BranchStream, FoldPlan, path_series
from repro.common.history import (
    INDIRECT_TARGET_BITS,
    GlobalHistory,
    PathHistory,
)

MAX_BITS = 64

#: (length, width) fold geometries, TAGE-style: short and long windows,
#: widths both dividing and not dividing the length.
fold_specs_st = st.lists(
    st.tuples(st.integers(min_value=1, max_value=MAX_BITS),
              st.integers(min_value=1, max_value=14)),
    min_size=1, max_size=6, unique=True,
)

bit_st = st.integers(min_value=0, max_value=1)


def _seeded_history(prior_bits, specs):
    """A GlobalHistory with ``specs`` folds attached, then ``prior_bits``
    pushed — so the plan starts from a non-trivial register state."""
    ghist = GlobalHistory(MAX_BITS)
    for length, width in specs:
        ghist.attach_fold(length, width)
    for bit in prior_bits:
        ghist.push_conditional(bool(bit))
    return ghist


class TestFoldPlan:
    @given(specs=fold_specs_st,
           prior=st.lists(bit_st, max_size=MAX_BITS + 8),
           pushed=st.lists(bit_st, max_size=96))
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_series_matches_incremental_push_bit(self, specs, prior, pushed):
        plan = FoldPlan(_seeded_history(prior, specs),
                        np.asarray(pushed, dtype=np.int64))
        oracle = _seeded_history(prior, specs)

        for k in range(len(pushed) + 1):
            for key, reg in oracle._folds.items():
                assert int(plan.column(*key)[k]) == reg.value, (
                    f"register {key} diverges after {k} bits"
                )
            if k < len(pushed):
                oracle.push_conditional(bool(pushed[k]))

    @given(specs=fold_specs_st,
           prior=st.lists(bit_st, max_size=MAX_BITS + 8),
           pushed=st.lists(bit_st, max_size=96))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_finalize_reaches_incremental_end_state(self, specs, prior,
                                                    pushed):
        # write_back leaves the planned history exactly where pushing the
        # stream bit by bit leaves the oracle: bits and register values.
        ghist = _seeded_history(prior, specs)
        oracle = _seeded_history(prior, specs)
        FoldPlan(ghist, np.asarray(pushed, dtype=np.int64)).write_back()
        for bit in pushed:
            oracle.push_conditional(bool(bit))

        assert ghist.bits(MAX_BITS) == oracle.bits(MAX_BITS)
        assert ({key: reg.value for key, reg in ghist._folds.items()}
                == {key: reg.value for key, reg in oracle._folds.items()})

    @given(specs=fold_specs_st,
           prior=st.lists(bit_st, max_size=MAX_BITS + 8),
           pushed=st.lists(bit_st, min_size=1, max_size=64))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_sync_back_agrees_with_fold_snapshot(self, specs, prior, pushed):
        # End-to-end: plan a stream and write it back into the
        # GlobalHistory — every register must equal the from-scratch
        # fold_snapshot of the final bit history.
        ghist = _seeded_history(prior, specs)
        FoldPlan(ghist, np.asarray(pushed, dtype=np.int64)).write_back()
        for length, width in specs:
            assert ghist._folds[(length, width)].value == \
                ghist.fold_snapshot(length, width)

    def test_desynced_register_raises_instead_of_skewing(self):
        # The k == 0 column is checked against the live registers; a
        # corrupted register must fail loudly (callers then fall back to
        # the incremental path) rather than produce a silently wrong plan.
        ghist = _seeded_history([1, 0, 1, 1], [(12, 5)])
        ghist._folds[(12, 5)].value ^= 1
        with pytest.raises(RuntimeError):
            FoldPlan(ghist, np.asarray([1, 0], dtype=np.int64))
        assert FoldPlan.for_history(
            ghist, np.asarray([1, 0], dtype=np.int64)) is None


class TestPathSeries:
    @given(width=st.integers(min_value=1, max_value=20),
           bits_per_branch=st.integers(min_value=1, max_value=4),
           prior_pcs=st.lists(
               st.integers(min_value=0, max_value=2**30), max_size=24),
           event_pcs=st.lists(
               st.integers(min_value=0, max_value=2**30), max_size=48))
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_matches_path_history_push(self, width, bits_per_branch,
                                       prior_pcs, event_pcs):
        path = PathHistory(width=width, bits_per_branch=bits_per_branch)
        for pc in prior_pcs:
            path.push(pc)

        chunks = np.asarray(
            [(pc >> 1) & mask(bits_per_branch) for pc in event_pcs],
            dtype=np.int64,
        )
        series = path_series(path.value, width, bits_per_branch, chunks)

        assert len(series) == len(event_pcs) + 1
        for k, pc in enumerate(event_pcs):
            assert int(series[k]) == path.value
            path.push(pc)
        assert int(series[-1]) == path.value


#: One architectural branch event: (is_indirect, pc, taken-bit-or-target).
events_st = st.lists(
    st.tuples(st.booleans(),
              st.integers(min_value=0, max_value=2**30),
              st.integers(min_value=0, max_value=2**30)),
    max_size=10,
)


def _stream(events):
    kind = np.asarray([1 if ind else 0 for ind, _, _ in events],
                      dtype=np.int64)
    pc = np.asarray([p for _, p, _ in events], dtype=np.int64)
    val = np.asarray([v if ind else (v & 1) for ind, _, v in events],
                     dtype=np.int64)
    return BranchStream(kind, pc, val)


class TestBranchStream:
    @given(events=events_st)
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_mixed_is_the_global_history_push_stream(self, events):
        stream = _stream(events)
        bits, offsets = stream.mixed()

        # Oracle 1: feed the events through a live GlobalHistory and read
        # the bits back (newest first -> reversed to push order).
        ghist = GlobalHistory(max(1, len(bits)))
        expected_offsets = []
        pushed = 0
        for ind, _, value in events:
            expected_offsets.append(pushed)
            if ind:
                ghist.push_indirect(value)
                pushed += INDIRECT_TARGET_BITS
            else:
                ghist.push_conditional(bool(value & 1))
                pushed += 1
        assert offsets.tolist() == expected_offsets
        assert bits.tolist() == ghist.bits(pushed)[::-1]

    @given(events=events_st)
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_cond_and_ind_projections(self, events):
        stream = _stream(events)

        cond_oracle = [v & 1 for ind, _, v in events if not ind]
        assert stream.cond_only().tolist() == cond_oracle

        # ind_only: INDIRECT_TARGET_BITS folded bits per indirect,
        # MSB-first, exactly as GlobalHistory.push_indirect folds them.
        ind_oracle = []
        for ind, _, target in events:
            if not ind:
                continue
            folded = fold_bits(target, max(target.bit_length(), 1),
                               INDIRECT_TARGET_BITS)
            ind_oracle.extend(
                (folded >> i) & 1
                for i in range(INDIRECT_TARGET_BITS - 1, -1, -1))
        assert stream.ind_only().tolist() == ind_oracle

    @given(events=events_st)
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_expansions_are_cached(self, events):
        stream = _stream(events)
        assert stream.mixed() is stream.mixed()
        assert stream.cond_only() is stream.cond_only()
        assert stream.ind_only() is stream.ind_only()

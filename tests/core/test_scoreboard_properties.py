"""Differential property tests for the batched scoreboards.

:mod:`repro.core.scoreboard` replaces the scalar engine's unbounded lists
and dict-of-dataclasses with fixed rings and per-seq columns; these tests
pin each replacement to the obvious python oracle it stands in for:

* :class:`RingWindow` of capacity ``k``  ==  ``history[-k]`` on a list,
* :class:`StoreScoreboard`               ==  a dict of per-store records.

All hypothesis tests run ``derandomize=True`` so the explored example
sequence is a pure function of the test source (det-unseeded-rng applies
in spirit to the test tier too: no run-to-run variance).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.scoreboard import RingWindow, StoreScoreboard

#: Values pushed through the windows: cycle counts are small non-negative
#: ints, but nothing in the structures requires that — use a wider band.
values_st = st.integers(min_value=-(2**40), max_value=2**40)


class TestRingWindow:
    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError):
            RingWindow(0)
        with pytest.raises(ValueError):
            RingWindow(-3)

    @given(capacity=st.integers(min_value=1, max_value=9),
           stream=st.lists(values_st, max_size=64))
    @settings(max_examples=120, deadline=None, derandomize=True)
    def test_release_point_is_history_minus_capacity(self, capacity, stream):
        # The scalar engines read ``timeline[seq - k]`` / ``deque[-k]``;
        # the ring must return exactly that value at every step.
        ring = RingWindow(capacity)
        oracle = []
        for value in stream:
            ring.push(value)
            oracle.append(value)
            if len(oracle) < capacity:
                assert ring.release_point() is None
            else:
                assert ring.release_point() == oracle[-capacity]

    @given(capacity=st.integers(min_value=1, max_value=9),
           stream=st.lists(values_st, max_size=64))
    @settings(max_examples=120, deadline=None, derandomize=True)
    def test_history_is_live_window_oldest_first(self, capacity, stream):
        ring = RingWindow(capacity)
        oracle = []
        for value in stream:
            ring.push(value)
            oracle.append(value)
            live = oracle[-capacity:]
            assert ring.history().tolist() == live
            assert len(ring) == len(live)
            assert ring.total_pushed == len(oracle)

    def test_release_point_returns_native_int(self):
        # The timing loop does arithmetic on the returned value; a numpy
        # scalar leaking out would contaminate downstream ints.
        ring = RingWindow(2)
        ring.push(3)
        ring.push(4)
        assert type(ring.release_point()) is int


class TestStoreScoreboard:
    @given(data=st.data(),
           num_uops=st.integers(min_value=1, max_value=48))
    @settings(max_examples=120, deadline=None, derandomize=True)
    def test_matches_dict_oracle(self, data, num_uops):
        # The scalar engine keeps StoreTiming dataclasses in a dict keyed
        # by store seq; the columns must replay record/overwrite/read
        # exactly, with -1 standing in for "never recorded".
        board = StoreScoreboard(num_uops)
        oracle = {}
        records = data.draw(st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=num_uops - 1),
                st.integers(min_value=0, max_value=2**20),
                st.integers(min_value=0, max_value=2**20),
                st.integers(min_value=0, max_value=2**20),
                st.integers(min_value=0, max_value=512),
            ),
            max_size=32,
        ))
        for seq, addr_resolve, data_ready, drain, branches in records:
            board.record(seq, addr_resolve, data_ready, drain, branches)
            oracle[seq] = (addr_resolve, data_ready, drain, branches)

        for seq in range(num_uops):
            expected = oracle.get(seq, (-1, -1, -1, -1))
            got = (int(board.addr_resolve[seq]), int(board.data_ready[seq]),
                   int(board.drain[seq]), int(board.branch_count[seq]))
            assert got == expected
            # forward_ready is the store-to-load forwarding gate: the
            # later of address resolution and data readiness.
            assert board.forward_ready(seq) == max(expected[0], expected[1])


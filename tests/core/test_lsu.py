"""Tests for the store timing window."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.lsu import StoreTiming, StoreWindow


def timing(seq, addr_resolve=10, data_ready=12):
    return StoreTiming(seq=seq, pc=0x400200, addr_resolve=addr_resolve,
                       data_ready=data_ready, drain=100, branch_count=0)


class TestStoreTiming:
    def test_forward_ready_is_max(self):
        t = timing(0, addr_resolve=10, data_ready=20)
        assert t.forward_ready == 20
        t = timing(0, addr_resolve=30, data_ready=20)
        assert t.forward_ready == 30


class TestStoreWindow:
    def test_by_seq(self):
        w = StoreWindow()
        w.add(timing(5))
        assert w.by_seq(5).seq == 5
        assert w.by_seq(6) is None
        assert w.by_seq(None) is None

    def test_by_distance(self):
        w = StoreWindow()
        for seq in (1, 2, 3):
            w.add(timing(seq))
        assert w.by_distance(1).seq == 3  # youngest
        assert w.by_distance(3).seq == 1
        assert w.by_distance(0) is None
        assert w.by_distance(4) is None

    def test_capacity_eviction(self):
        w = StoreWindow(capacity=2)
        for seq in (1, 2, 3):
            w.add(timing(seq))
        assert w.by_seq(1) is None
        assert w.by_seq(3) is not None
        assert len(w) == 2

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            StoreWindow(capacity=0)

    def test_reset(self):
        w = StoreWindow()
        w.add(timing(1))
        w.reset()
        assert len(w) == 0
        assert w.by_seq(1) is None


class TestStoreWindowOracle:
    """The window against a plain list of every store added, trimmed to
    the youngest ``capacity`` entries."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=8),
           st.lists(st.integers(min_value=0, max_value=10_000),
                    unique=True, max_size=40))
    def test_lookups_match_oracle(self, capacity, seqs):
        w = StoreWindow(capacity=capacity)
        for seq in seqs:
            w.add(timing(seq))
        live = seqs[-capacity:]
        assert len(w) == len(live)
        for seq in seqs:
            found = w.by_seq(seq)
            assert (found is not None) == (seq in live)
            if found is not None:
                assert found.seq == seq
        for distance in range(1, len(live) + 1):
            assert w.by_distance(distance).seq == live[-distance]
        assert w.by_distance(len(live) + 1) is None

    @given(st.integers(min_value=1, max_value=8),
           st.integers(min_value=0, max_value=30))
    def test_evictions_count_capacity_overflow(self, capacity, adds):
        w = StoreWindow(capacity=capacity)
        for seq in range(adds):
            w.add(timing(seq))
        assert w.evictions == max(0, adds - capacity)
        assert len(w) == min(adds, capacity)

    def test_negative_distance_is_untracked(self):
        w = StoreWindow()
        w.add(timing(1))
        assert w.by_distance(-1) is None

    def test_window_refills_after_reset(self):
        w = StoreWindow(capacity=2)
        for seq in (1, 2, 3):
            w.add(timing(seq))
        w.reset()
        w.add(timing(9))
        assert w.by_distance(1).seq == 9
        assert w.by_distance(2) is None
        assert len(w) == 1

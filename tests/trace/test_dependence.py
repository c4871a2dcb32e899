"""Tests for overlap classification and the dependence tracker."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.trace.dependence import DependenceTracker, classify_overlap
from repro.trace.uop import BypassClass, MicroOp, OpClass


def _linear_scan(stores, window, instr_window, load_addr, load_size,
                 load_seq):
    """Reference lookup: walk the last ``window`` stores youngest-first.

    ``stores`` is every recorded store as ``(seq, address, size)`` in
    program order.  Returns ``(distance, store seq, class)``.
    """
    for idx in range(len(stores) - 1, max(len(stores) - window, 0) - 1, -1):
        seq, addr, size = stores[idx]
        if load_seq - seq > instr_window:
            break
        cls = classify_overlap(addr, size, load_addr, load_size)
        if cls is not BypassClass.NONE:
            return len(stores) - idx, seq, cls
    return 0, None, BypassClass.NONE


#: One stream event: (is_store, address, size, seq advance, via MicroOp).
#: Addresses are offsets from a per-stream base and span a few granules,
#: so stores collide, straddle granules and re-store granules whose
#: earlier records were evicted.
_EVENT = st.tuples(st.booleans(), st.integers(min_value=0, max_value=48),
                   st.integers(min_value=1, max_value=16),
                   st.integers(min_value=1, max_value=12), st.booleans())


class TestClassifyOverlap:
    """Fig. 1's taxonomy, case by case."""

    def test_direct_bypass(self):
        assert classify_overlap(0x100, 8, 0x100, 8) is BypassClass.DIRECT

    def test_no_offset_truncation(self):
        assert classify_overlap(0x100, 8, 0x100, 4) is BypassClass.NO_OFFSET

    def test_offset_contained(self):
        assert classify_overlap(0x100, 8, 0x104, 4) is BypassClass.OFFSET

    def test_partial_overlap_is_mdp_only(self):
        # Load extends past the end of the store.
        assert classify_overlap(0x100, 8, 0x106, 4) is BypassClass.MDP_ONLY

    def test_load_starts_before_store(self):
        assert classify_overlap(0x100, 8, 0x0FC, 8) is BypassClass.MDP_ONLY

    def test_load_larger_than_store_same_address(self):
        assert classify_overlap(0x100, 4, 0x100, 8) is BypassClass.MDP_ONLY

    def test_adjacent_no_overlap(self):
        assert classify_overlap(0x100, 8, 0x108, 8) is BypassClass.NONE
        assert classify_overlap(0x108, 8, 0x100, 8) is BypassClass.NONE

    def test_disjoint(self):
        assert classify_overlap(0x100, 8, 0x500, 8) is BypassClass.NONE

    def test_single_byte_overlap_counts(self):
        # "a dependence arises when the accesses overlap (even a single byte)"
        assert classify_overlap(0x100, 8, 0x107, 8) is BypassClass.MDP_ONLY

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            classify_overlap(0x100, 0, 0x100, 8)
        with pytest.raises(ValueError):
            classify_overlap(0x100, 8, 0x100, -1)

    @given(st.integers(min_value=0, max_value=1 << 20),
           st.integers(min_value=1, max_value=64),
           st.integers(min_value=0, max_value=1 << 20),
           st.integers(min_value=1, max_value=64))
    @settings(max_examples=200)
    def test_property_consistent_with_byte_sets(self, sa, ss, la, ls):
        store_bytes = set(range(sa, sa + ss))
        load_bytes = set(range(la, la + ls))
        cls = classify_overlap(sa, ss, la, ls)
        overlap = bool(store_bytes & load_bytes)
        assert cls.is_dependence == overlap
        if cls.is_bypassable:
            assert load_bytes <= store_bytes
        if overlap and not load_bytes <= store_bytes:
            assert cls is BypassClass.MDP_ONLY


class TestDependenceTracker:
    def test_no_stores_no_dependence(self):
        t = DependenceTracker()
        distance, store, cls = t.find_dependence(0x100, 8, load_seq=5)
        assert (distance, store, cls) == (0, None, BypassClass.NONE)

    def test_immediate_dependence_distance_one(self):
        t = DependenceTracker()
        t.record_raw_store(seq=0, address=0x100, size=8)
        distance, store, cls = t.find_dependence(0x100, 8, load_seq=1)
        assert distance == 1
        assert store.seq == 0
        assert cls is BypassClass.DIRECT

    def test_distance_counts_intervening_stores(self):
        t = DependenceTracker()
        t.record_raw_store(0, 0x100, 8)
        t.record_raw_store(1, 0x200, 8)
        t.record_raw_store(2, 0x300, 8)
        distance, store, _ = t.find_dependence(0x100, 8, load_seq=3)
        assert distance == 3
        assert store.seq == 0

    def test_youngest_overlapping_store_wins(self):
        t = DependenceTracker()
        t.record_raw_store(0, 0x100, 8)
        t.record_raw_store(1, 0x100, 8)
        distance, store, _ = t.find_dependence(0x100, 8, load_seq=2)
        assert store.seq == 1
        assert distance == 1

    def test_store_window_eviction(self):
        t = DependenceTracker(window=2)
        t.record_raw_store(0, 0x100, 8)
        t.record_raw_store(1, 0x200, 8)
        t.record_raw_store(2, 0x300, 8)
        # The store to 0x100 fell out of the 2-entry window.
        distance, store, cls = t.find_dependence(0x100, 8, load_seq=3)
        assert (distance, store, cls) == (0, None, BypassClass.NONE)

    def test_instruction_window_bound(self):
        t = DependenceTracker(window=100, instr_window=10)
        t.record_raw_store(0, 0x100, 8)
        # Within the instruction window: found.
        assert t.find_dependence(0x100, 8, load_seq=5)[0] == 1
        # Beyond it: the store has drained.
        assert t.find_dependence(0x100, 8, load_seq=50)[0] == 0

    def test_partial_overlap_classified(self):
        t = DependenceTracker()
        t.record_raw_store(0, 0x100, 8)
        _, _, cls = t.find_dependence(0x106, 4, load_seq=1)
        assert cls is BypassClass.MDP_ONLY

    def test_reset(self):
        t = DependenceTracker()
        t.record_raw_store(0, 0x100, 8)
        t.reset()
        assert t.store_count == 0
        assert t.find_dependence(0x100, 8, load_seq=1)[0] == 0

    def test_invalid_windows(self):
        with pytest.raises(ValueError):
            DependenceTracker(window=0)
        with pytest.raises(ValueError):
            DependenceTracker(instr_window=0)

    def test_store_count_monotonic(self):
        t = DependenceTracker(window=4)
        for i in range(10):
            t.record_raw_store(i, 0x100 + 16 * i, 8)
        assert t.store_count == 10

    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=63),
                              st.sampled_from([4, 8])),
                    min_size=1, max_size=60))
    @settings(max_examples=50, deadline=None)
    def test_property_distance_matches_naive_scan(self, stores):
        """Tracker agrees with a brute-force youngest-overlap scan."""
        window = 16
        t = DependenceTracker(window=window, instr_window=10_000)
        log = []
        for i, (slot, size) in enumerate(stores):
            addr = 0x1000 + slot * 8
            t.record_raw_store(i, addr, size)
            log.append((i, addr, size))
        load_addr, load_size = 0x1000 + stores[-1][0] * 8, 8
        distance, store, _ = t.find_dependence(load_addr, load_size,
                                               load_seq=len(stores))
        # Brute force over the window.
        expected = None
        for rank, (seq, addr, size) in enumerate(reversed(log[-window:])):
            if addr < load_addr + load_size and load_addr < addr + size:
                expected = (rank + 1, seq)
                break
        if expected is None:
            assert distance == 0
        else:
            assert (distance, store.seq) == expected


class TestGranuleIndex:
    """The granule-indexed window against the reference linear scan."""

    @given(st.integers(min_value=1, max_value=8),
           st.integers(min_value=1, max_value=64),
           st.integers(min_value=0, max_value=1 << 40),
           st.lists(_EVENT, min_size=40, max_size=160))
    @settings(max_examples=200, deadline=None)
    def test_property_matches_linear_scan(self, window, instr_window, base,
                                          events):
        t = DependenceTracker(window=window, instr_window=instr_window)
        stores = []
        seq = 0
        for is_store, offset, size, advance, via_uop in events:
            seq += advance
            addr = base + offset
            if is_store:
                if via_uop:
                    uop = MicroOp(seq, 0x400000, OpClass.STORE,
                                  address=addr, size=size)
                    record = t.record_store(uop)
                else:
                    record = t.record_raw_store(seq, addr, size)
                assert (record.seq, record.store_number) == (seq, len(stores))
                stores.append((seq, addr, size))
            else:
                distance, store, cls = t.find_dependence(addr, size, seq)
                got = (distance, None if store is None else store.seq, cls)
                assert got == _linear_scan(stores, window, instr_window,
                                           addr, size, seq)
        assert t.store_count == len(stores)

    def test_load_straddling_two_granules(self):
        t = DependenceTracker()
        t.record_raw_store(0, 0x108, 8)
        t.record_raw_store(1, 0x100, 2)
        # Bytes 0x106..0x109: only the older store (granule 0x21) overlaps.
        distance, store, cls = t.find_dependence(0x106, 4, load_seq=2)
        assert (distance, store.seq, cls) == (2, 0, BypassClass.MDP_ONLY)

    @pytest.mark.parametrize("low, high", [(0, 1), (1, 0)])
    def test_youngest_across_granules_wins(self, low, high):
        # Store ``low`` writes the load's first granule, ``high`` its second.
        t = DependenceTracker()
        for seq in range(2):
            t.record_raw_store(seq, 0x100 if seq == low else 0x108, 8)
        distance, store, cls = t.find_dependence(0x104, 8, load_seq=2)
        assert (distance, store.seq, cls) == (1, 1, BypassClass.MDP_ONLY)

    def test_non_overlapping_store_in_same_granule(self):
        t = DependenceTracker()
        t.record_raw_store(0, 0x100, 4)
        t.record_raw_store(1, 0x104, 2)
        distance, store, cls = t.find_dependence(0x100, 4, load_seq=2)
        assert (distance, store.seq, cls) == (2, 0, BypassClass.DIRECT)

    def test_restore_after_eviction(self):
        t = DependenceTracker(window=1)
        t.record_raw_store(0, 0x100, 8)
        t.record_raw_store(1, 0x200, 8)
        assert t.find_dependence(0x100, 8, load_seq=2)[0] == 0
        t.record_raw_store(3, 0x100, 8)
        distance, store, _ = t.find_dependence(0x100, 8, load_seq=4)
        assert (distance, store.seq) == (1, 3)

    def test_index_holds_only_the_window(self):
        t = DependenceTracker(window=4)
        for i in range(1_000):
            t.record_raw_store(i, 0x1000 + 12 * i, 12)
        assert len(t._in_window) == 4
        buckets = [r for bucket in t._granules.values() for r in bucket]
        assert sorted({r.seq for r in buckets}) == [996, 997, 998, 999]
        # A 12-byte store covers two or three granules.
        assert len(t._granules) <= 4 * 3

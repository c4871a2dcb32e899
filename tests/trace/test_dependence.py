"""Tests for overlap classification and the ground-truth dependence pass."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.trace import dependence
from repro.trace.columns import BYPASS_BY_CODE, BYPASS_CODES, OP_CODES
from repro.trace.dependence import classify_overlap, fill_dependences
from repro.trace.uop import BypassClass, OpClass


def _linear_scan(stores, window, instr_window, load_addr, load_size,
                 load_seq):
    """Reference lookup: walk the last ``window`` stores youngest-first.

    ``stores`` is every older store as ``(seq, address, size)`` in
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


def _dependences(mem_ops, window=114, instr_window=512):
    """Run :func:`fill_dependences` over a trace holding the memory ops
    ``(seq, is_store, address, size)`` (ALU ops elsewhere); returns
    ``{load seq: (distance, store seq, class)}``."""
    n = max(seq for seq, *_ in mem_ops) + 1
    op = np.full(n, OP_CODES[OpClass.ALU], np.int8)
    address = np.zeros(n, np.int64)
    size = np.zeros(n, np.int32)
    for seq, is_store, addr, nbytes in mem_ops:
        op[seq] = OP_CODES[OpClass.STORE if is_store else OpClass.LOAD]
        address[seq] = addr
        size[seq] = nbytes
    distance = np.zeros(n, np.int32)
    dep = np.full(n, -1, np.int32)
    bypass = np.full(n, BYPASS_CODES[BypassClass.NONE], np.int8)
    fill_dependences(op, address, size, distance, dep, bypass, window,
                     instr_window)
    loads = op == OP_CODES[OpClass.LOAD]
    assert not distance[~loads].any() and (dep[~loads] == -1).all()
    return {seq: (int(distance[seq]),
                  None if dep[seq] < 0 else int(dep[seq]),
                  BYPASS_BY_CODE[bypass[seq]])
            for seq in np.flatnonzero(loads).tolist()}


def _store(seq, addr, size=8):
    return seq, True, addr, size


def _load(seq, addr, size=8):
    return seq, False, addr, size


#: One stream event: (is_store, address, size, seq advance).  Addresses
#: are offsets from a per-stream base and span a few granules, so stores
#: collide, straddle granules and re-store granules that left the window.
_EVENT = st.tuples(st.booleans(), st.integers(min_value=0, max_value=48),
                   st.integers(min_value=1, max_value=16),
                   st.integers(min_value=1, max_value=12))


def _check_stream(window, instr_window, base, events):
    """Every load of the stream ``events`` against the linear scan."""
    mem_ops = []
    stores = []
    expected = {}
    seq = 0
    for is_store, offset, size, advance in events:
        seq += advance
        addr = base + offset
        mem_ops.append((seq, is_store, addr, size))
        if is_store:
            stores.append((seq, addr, size))
        else:
            expected[seq] = _linear_scan(stores, window, instr_window, addr,
                                         size, seq)
    if mem_ops:
        assert _dependences(mem_ops, window, instr_window) == expected


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
    """:func:`fill_dependences` case by case."""

    def test_no_stores_no_dependence(self):
        assert _dependences([_load(5, 0x100)]) == {
            5: (0, None, BypassClass.NONE)}

    def test_immediate_dependence_distance_one(self):
        got = _dependences([_store(0, 0x100), _load(1, 0x100)])
        assert got[1] == (1, 0, BypassClass.DIRECT)

    def test_distance_counts_intervening_stores(self):
        got = _dependences([_store(0, 0x100), _store(1, 0x200),
                            _store(2, 0x300), _load(3, 0x100)])
        assert got[3][:2] == (3, 0)

    def test_youngest_overlapping_store_wins(self):
        got = _dependences([_store(0, 0x100), _store(1, 0x100),
                            _load(2, 0x100)])
        assert got[2][:2] == (1, 1)

    def test_store_window_eviction(self):
        # The store to 0x100 fell out of the 2-entry window.
        got = _dependences([_store(0, 0x100), _store(1, 0x200),
                            _store(2, 0x300), _load(3, 0x100)], window=2)
        assert got[3] == (0, None, BypassClass.NONE)

    def test_instruction_window_bound(self):
        got = _dependences([_store(0, 0x100), _load(5, 0x100),
                            _load(50, 0x100)], window=100, instr_window=10)
        # Within the instruction window: found.
        assert got[5][0] == 1
        # Beyond it: the store has drained.
        assert got[50][0] == 0

    def test_partial_overlap_classified(self):
        got = _dependences([_store(0, 0x100), _load(1, 0x106, 4)])
        assert got[1][2] is BypassClass.MDP_ONLY

    def test_invalid_windows(self):
        op = np.zeros(1, np.int8)
        empty = np.zeros(1, np.int64)
        for windows in ((0, 512), (114, 0)):
            with pytest.raises(ValueError):
                fill_dependences(op, empty, empty, empty, empty, empty,
                                 *windows)

    def test_non_positive_sizes_rejected(self):
        with pytest.raises(ValueError, match="sizes must be positive"):
            _dependences([_store(0, 0x100), _load(1, 0x100, 0)])

    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=63),
                              st.sampled_from([4, 8])),
                    min_size=1, max_size=60))
    @settings(max_examples=50, deadline=None)
    def test_property_distance_matches_naive_scan(self, stores):
        """The pass agrees with a brute-force youngest-overlap scan."""
        window = 16
        log = [(i, 0x1000 + slot * 8, size)
               for i, (slot, size) in enumerate(stores)]
        load_addr, load_size = 0x1000 + stores[-1][0] * 8, 8
        got = _dependences([(*entry[:1], True, *entry[1:]) for entry in log]
                           + [_load(len(stores), load_addr, load_size)],
                           window=window, instr_window=10_000)
        distance, store, _ = got[len(stores)]
        # Brute force over the window.
        expected = None
        for rank, (seq, addr, size) in enumerate(reversed(log[-window:])):
            if addr < load_addr + load_size and load_addr < addr + size:
                expected = (rank + 1, seq)
                break
        if expected is None:
            assert distance == 0
        else:
            assert (distance, store) == expected


class TestGranuleIndex:
    """The granule search against the reference linear scan."""

    @given(st.integers(min_value=1, max_value=8),
           st.integers(min_value=1, max_value=64),
           st.integers(min_value=0, max_value=1 << 40),
           st.lists(_EVENT, min_size=40, max_size=160))
    @settings(max_examples=200, deadline=None)
    def test_property_matches_linear_scan(self, window, instr_window, base,
                                          events):
        _check_stream(window, instr_window, base, events)

    @given(st.integers(min_value=1, max_value=8),
           st.integers(min_value=1, max_value=64),
           st.integers(min_value=0, max_value=1 << 40),
           st.lists(_EVENT, min_size=40, max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_property_matches_linear_scan_across_blocks(
            self, window, instr_window, base, events):
        # Streams many blocks long: each block must see the stores of
        # the instruction window before it.
        with mock.patch.object(dependence, "_BLOCK", 16):
            _check_stream(window, instr_window, base, events)

    def test_load_straddling_two_granules(self):
        # Bytes 0x106..0x109: only the older store (granule 0x21) overlaps.
        got = _dependences([_store(0, 0x108), _store(1, 0x100, 2),
                            _load(2, 0x106, 4)])
        assert got[2] == (2, 0, BypassClass.MDP_ONLY)

    @pytest.mark.parametrize("low, high", [(0, 1), (1, 0)])
    def test_youngest_across_granules_wins(self, low, high):
        # Store ``low`` writes the load's first granule, ``high`` its second.
        got = _dependences([_store(seq, 0x100 if seq == low else 0x108)
                            for seq in range(2)] + [_load(2, 0x104)])
        assert got[2] == (1, 1, BypassClass.MDP_ONLY)

    def test_non_overlapping_store_in_same_granule(self):
        got = _dependences([_store(0, 0x100, 4), _store(1, 0x104, 2),
                            _load(2, 0x100, 4)])
        assert got[2] == (2, 0, BypassClass.DIRECT)

    def test_restore_after_eviction(self):
        got = _dependences([_store(0, 0x100), _store(1, 0x200),
                            _load(2, 0x100), _store(3, 0x100),
                            _load(4, 0x100)], window=1)
        assert got[2][0] == 0
        assert got[4][:2] == (1, 3)

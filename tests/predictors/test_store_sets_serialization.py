"""Tests for Store Sets' store-store serialization and footprint scaling."""

import pytest

from repro.predictors.base import ActualOutcome
from repro.predictors.store_sets import StoreSets
from repro.trace.uop import BypassClass, MicroOp, OpClass


def load(seq, pc=0x400100):
    return MicroOp(seq, pc, OpClass.LOAD, address=0x1000, size=8)


def violation(store_seq, store_pc=0x400200):
    return ActualOutcome(distance=1, store_seq=store_seq,
                         bypass=BypassClass.DIRECT, store_pc=store_pc)


class TestStoreSerialization:
    def test_unassigned_store_unconstrained(self):
        ss = StoreSets(clear_interval=0)
        assert ss.on_store(5, 0x400200) is None

    def test_second_store_in_set_serialises(self):
        """Two stores merged into one set order behind each other via the
        LFST (Chrysos & Emer)."""
        ss = StoreSets(clear_interval=0, footprint_scale=1)
        # Create a set containing two static stores via two violations.
        la = load(10, pc=0x400100)
        ss.train(la, ss.predict(la), violation(5, store_pc=0x400200))
        ss.train(la, ss.predict(la), violation(6, store_pc=0x400300))
        first = ss.on_store(20, 0x400200)
        second = ss.on_store(21, 0x400300)
        assert second == 20  # must issue behind the set's previous store

    def test_stale_constraint_dropped(self):
        ss = StoreSets(clear_interval=0, footprint_scale=1, instr_window=50)
        la = load(10)
        ss.train(la, ss.predict(la), violation(5))
        ss.on_store(20, 0x400200)
        assert ss.on_store(500, 0x400200) is None  # previous store drained


class TestFootprintScale:
    def test_scale_one_separates_distinct_pcs(self):
        ss = StoreSets(clear_interval=0, footprint_scale=1)
        # With the literal 8K SSIT, two nearby PCs almost surely differ.
        assert ss._ssit_index(0x400100) != ss._ssit_index(0x400480)

    def test_larger_scale_increases_collisions(self):
        pcs = [0x400000 + 4 * i for i in range(200)]
        literal = StoreSets(footprint_scale=1)
        scaled = StoreSets(footprint_scale=192)
        literal_slots = {literal._ssit_index(pc) for pc in pcs}
        scaled_slots = {scaled._ssit_index(pc) for pc in pcs}
        assert len(scaled_slots) < len(literal_slots)
        assert len(scaled_slots) <= scaled._effective_ssit

    def test_storage_unaffected_by_scale(self):
        """The scale models workload pressure, not hardware size."""
        assert (StoreSets(footprint_scale=1).storage_bits
                == StoreSets(footprint_scale=192).storage_bits)

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            StoreSets(footprint_scale=0)

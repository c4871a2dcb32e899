"""Tests for the MASCOT predictor: structure, update rules, allocation."""

import pytest

from repro.predictors.base import ActualOutcome, PredictionKind
from repro.predictors.configs import MASCOT_DEFAULT, MascotConfig
from repro.predictors.mascot import Mascot, MascotEntry
from repro.trace.uop import BypassClass, MicroOp, OpClass

from tests.conftest import drive_predictor, small_trace


def load_uop(seq=100, pc=0x400100):
    return MicroOp(seq, pc, OpClass.LOAD, address=0x1000, size=8)


def outcome_dep(distance=3, bypass=BypassClass.DIRECT, store_seq=90):
    return ActualOutcome(distance=distance, store_seq=store_seq,
                         bypass=bypass)


def outcome_nodep():
    return ActualOutcome(distance=0, store_seq=None, bypass=BypassClass.NONE)


class TestStructure:
    def test_default_configuration(self):
        m = Mascot()
        assert len(m.bank) == 8
        assert m.bank.history_lengths == (0, 2, 4, 8, 16, 32, 64, 128)
        assert all(t.num_entries == 512 for t in m.bank.tables)
        assert all(t.ways == 4 for t in m.bank.tables)

    def test_size_is_14_kib(self):
        assert Mascot().storage_kib == pytest.approx(14.0)

    def test_supports_smb_by_config(self):
        assert Mascot().supports_smb
        assert not Mascot(
            MASCOT_DEFAULT.with_(name="mdp", smb_enabled=False)
        ).supports_smb


class TestBasePrediction:
    def test_cold_predicts_no_dependence(self):
        m = Mascot()
        p = m.predict(load_uop())
        assert p.kind is PredictionKind.NO_DEP
        assert p.source_table is None

    def test_base_counted_in_table_stats(self):
        m = Mascot()
        m.predict(load_uop())
        assert m.predictions_per_table[-1] == 1


class TestAllocationOnMiss:
    def test_base_mispredict_allocates_in_table_zero(self):
        """Sec. IV-C: base mispredict -> dependent entry in N0, useful 6."""
        m = Mascot()
        uop = load_uop()
        p = m.predict(uop)
        m.train(uop, p, outcome_dep(distance=3))
        assert m.allocations_dep == 1
        entries = list(m.bank[0].entries())
        assert len(entries) == 1
        entry = entries[0][2]
        assert entry.distance == 3
        assert entry.usefulness == MASCOT_DEFAULT.alloc_usefulness_dep

    def test_learns_unconditional_dependence(self):
        m = Mascot()
        uop = load_uop()
        p = m.predict(uop)
        m.train(uop, p, outcome_dep(distance=3))
        p = m.predict(uop)
        assert p.kind in (PredictionKind.MDP, PredictionKind.SMB)
        assert p.distance == 3

    def test_bypass_counter_starts_at_one_for_bypassable(self):
        m = Mascot()
        uop = load_uop()
        m.train(uop, m.predict(uop), outcome_dep(bypass=BypassClass.DIRECT))
        entry = next(iter(m.bank[0].entries()))[2]
        assert entry.bypass == 1

    def test_bypass_counter_starts_at_zero_for_partial(self):
        m = Mascot()
        uop = load_uop()
        m.train(uop, m.predict(uop),
                outcome_dep(bypass=BypassClass.MDP_ONLY))
        entry = next(iter(m.bank[0].entries()))[2]
        assert entry.bypass == 0

    def test_distance_capped_at_127(self):
        m = Mascot()
        uop = load_uop()
        m.train(uop, m.predict(uop),
                outcome_dep(distance=500, store_seq=1))
        entry = next(iter(m.bank[0].entries()))[2]
        assert entry.distance == 127


class TestUpdateRules:
    """Sec. IV-B's four update rules, exercised directly."""

    def _train_once(self, m, actual):
        uop = load_uop()
        p = m.predict(uop)
        m.train(uop, p, actual)
        return p

    def test_correct_mdp_increments_usefulness(self):
        m = Mascot()
        self._train_once(m, outcome_dep())      # allocate (useful 6)
        self._train_once(m, outcome_dep())      # correct -> 7
        entry = next(iter(m.bank[0].entries()))[2]
        assert entry.usefulness == 7

    def test_correct_bypass_increments_bypass(self):
        m = Mascot()
        self._train_once(m, outcome_dep())      # allocate, bypass 1
        self._train_once(m, outcome_dep())      # bypass 2
        entry = next(iter(m.bank[0].entries()))[2]
        assert entry.bypass == 2

    def test_false_dependence_decrements_usefulness(self):
        m = Mascot()
        self._train_once(m, outcome_dep())      # allocate (useful 6)
        self._train_once(m, outcome_nodep())    # false dep -> 5
        entry = next(
            e for _, _, e in m.bank[0].entries() if e.distance > 0
        )
        assert entry.usefulness == 5

    def test_nonbypassable_instance_resets_bypass(self):
        m = Mascot()
        self._train_once(m, outcome_dep())  # bypass 1
        self._train_once(m, outcome_dep(bypass=BypassClass.MDP_ONLY))
        entry = next(iter(m.bank[0].entries()))[2]
        assert entry.bypass == 0

    def test_smb_needs_both_counters_saturated(self):
        m = Mascot()
        uop = load_uop()
        # Train until both counters saturate (useful 6->7, bypass 1->3).
        for _ in range(5):
            p = m.predict(uop)
            m.train(uop, p, outcome_dep())
        p = m.predict(uop)
        assert p.kind is PredictionKind.SMB

    def test_mdp_only_before_saturation(self):
        m = Mascot()
        uop = load_uop()
        p = m.predict(uop)
        m.train(uop, p, outcome_dep())
        p = m.predict(uop)
        assert p.kind is PredictionKind.MDP  # bypass counter only 1

    def test_smb_disabled_config_never_predicts_smb(self):
        m = Mascot(MASCOT_DEFAULT.with_(name="mdp", smb_enabled=False))
        uop = load_uop()
        for _ in range(8):
            p = m.predict(uop)
            m.train(uop, p, outcome_dep())
        assert m.predict(uop).kind is PredictionKind.MDP

    def test_offset_bypass_extension(self):
        base = Mascot()
        extended = Mascot(MASCOT_DEFAULT.with_(name="ext",
                                               offset_bypass=True))
        uop = load_uop()
        for m in (base, extended):
            for _ in range(8):
                p = m.predict(uop)
                m.train(uop, p, outcome_dep(bypass=BypassClass.OFFSET))
        assert base.predict(uop).kind is PredictionKind.MDP
        assert extended.predict(uop).kind is PredictionKind.SMB


class TestNonDependenceAllocation:
    """The key MASCOT innovation (Secs. III, IV-D)."""

    def test_false_dep_allocates_nondep_in_next_table(self):
        m = Mascot()
        uop = load_uop()
        p = m.predict(uop)
        m.train(uop, p, outcome_dep())       # dep entry in N0
        p = m.predict(uop)
        assert p.source_table == 0
        m.train(uop, p, outcome_nodep())     # false dep -> ND entry in N1
        assert m.allocations_nondep == 1
        nd_entries = [e for _, _, e in m.bank[1].entries()
                      if e.is_nondependence]
        assert len(nd_entries) == 1
        assert (nd_entries[0].usefulness
                == MASCOT_DEFAULT.alloc_usefulness_nondep)

    def test_nondep_entry_overrides_with_longer_history(self):
        """After the ND allocation, the same context predicts no-dep."""
        m = Mascot()
        uop = load_uop()
        p = m.predict(uop)
        m.train(uop, p, outcome_dep())
        p = m.predict(uop)
        m.train(uop, p, outcome_nodep())
        # History unchanged, so the ND entry (longer history) wins now.
        p = m.predict(uop)
        assert p.kind is PredictionKind.NO_DEP
        assert p.source_table == 1

    def test_ablation_does_not_allocate_nondep(self):
        m = Mascot(MASCOT_DEFAULT.with_(name="no-nd",
                                        allocate_nondependencies=False))
        uop = load_uop()
        p = m.predict(uop)
        m.train(uop, p, outcome_dep())
        p = m.predict(uop)
        m.train(uop, p, outcome_nodep())
        assert m.allocations_nondep == 0
        # Still predicting the (false) dependence, only weaker.
        assert m.predict(uop).kind is PredictionKind.MDP

    def test_correct_nondep_strengthens_nd_entry(self):
        m = Mascot()
        uop = load_uop()
        m.train(uop, m.predict(uop), outcome_dep())
        m.train(uop, m.predict(uop), outcome_nodep())  # ND allocated, u=2
        m.train(uop, m.predict(uop), outcome_nodep())  # correct -> u=3
        nd = next(e for _, _, e in m.bank[1].entries()
                  if e.is_nondependence)
        assert nd.usefulness == 3

    def test_nd_mispredict_allocates_dep_higher(self):
        """Fig. 3 step (3): an ND entry that mispredicts creates a
        dependence entry in an even higher-context table."""
        m = Mascot()
        uop = load_uop()
        m.train(uop, m.predict(uop), outcome_dep())    # dep in N0
        m.train(uop, m.predict(uop), outcome_nodep())  # ND in N1
        p = m.predict(uop)
        assert p.source_table == 1
        m.train(uop, p, outcome_dep())                 # dep in N2
        dep_in_n2 = [e for _, _, e in m.bank[2].entries()
                     if e.distance == 3]
        assert dep_in_n2


class TestWrongStoreConflict:
    def test_wrong_distance_allocates_next_table(self):
        m = Mascot()
        uop = load_uop()
        m.train(uop, m.predict(uop), outcome_dep(distance=3))
        p = m.predict(uop)
        assert p.distance == 3
        m.train(uop, p, outcome_dep(distance=5))
        # Correct distance learned with more context.
        entries_n1 = [e for _, _, e in m.bank[1].entries()]
        assert any(e.distance == 5 for e in entries_n1)

    def test_wrong_distance_decrements_source(self):
        m = Mascot()
        uop = load_uop()
        m.train(uop, m.predict(uop), outcome_dep(distance=3))
        m.train(uop, m.predict(uop), outcome_dep(distance=5))
        entry_n0 = next(iter(m.bank[0].entries()))[2]
        assert entry_n0.usefulness == 5

    def test_smb_wrong_store_resets_bypass(self):
        m = Mascot()
        uop = load_uop()
        for _ in range(6):
            m.train(uop, m.predict(uop), outcome_dep(distance=3))
        p = m.predict(uop)
        assert p.kind is PredictionKind.SMB
        m.train(uop, p, outcome_dep(distance=9))
        entry_n0 = next(
            e for _, _, e in m.bank[0].entries() if e.distance == 3
        )
        assert entry_n0.bypass == 0


class TestTryAgainAllocation:
    def test_failed_set_decrements_all_ways(self):
        """Sec. IV-C: when the first target set has no victim, all four of
        its ways are decremented."""
        config = MASCOT_DEFAULT.with_(name="tiny",
                                      table_entries=(4,) * 8)  # 1 set/table
        m = Mascot(config)
        indices, _ = keys = m.bank.reference_keys(0x400100)
        # Fill table 0's only set with protected entries.
        for w in range(4):
            m.bank[0].write(indices[0], w,
                            MascotEntry(tag=w + 1, distance=2,
                                        usefulness=6, bypass=0))
        m._allocate(keys, start=0, distance=7, bypassable=True)
        ways = m.bank[0].ways_at(indices[0])
        assert all(e.usefulness == 5 for e in ways)
        # And the allocation went to a later table instead.
        assert any(
            e.distance == 7
            for t in range(1, 8) for _, _, e in m.bank[t].entries()
        )
        assert m.allocation_failures == 1

    def test_only_first_target_set_decremented(self):
        config = MASCOT_DEFAULT.with_(name="tiny", table_entries=(4,) * 8)
        m = Mascot(config)
        indices, _ = keys = m.bank.reference_keys(0x400100)
        for t in (0, 1):
            for w in range(4):
                m.bank[t].write(indices[t], w,
                                MascotEntry(tag=w + 1, distance=2,
                                            usefulness=6, bypass=0))
        m._allocate(keys, start=0, distance=7, bypassable=False)
        assert all(e.usefulness == 5
                   for e in m.bank[0].ways_at(indices[0]))
        assert all(e.usefulness == 6
                   for e in m.bank[1].ways_at(indices[1]))

    def test_allocation_prefers_zero_usefulness_victim(self):
        m = Mascot()
        indices, _ = keys = m.bank.reference_keys(0x400100)
        m.bank[0].write(indices[0], 0,
                        MascotEntry(tag=1, distance=2, usefulness=0,
                                    bypass=0))
        m.bank[0].write(indices[0], 1,
                        MascotEntry(tag=2, distance=2, usefulness=6,
                                    bypass=0))
        table = m._allocate(keys, start=0, distance=9, bypassable=False)
        assert table == 0
        assert m.bank[0].ways_at(indices[0])[0].distance == 9

    def test_start_clamped_to_last_table(self):
        m = Mascot()
        keys = m.bank.reference_keys(0x400100)
        table = m._allocate(keys, start=99, distance=4, bypassable=False)
        assert table == len(m.bank) - 1


class TestHistorySensitivity:
    def test_prediction_depends_on_history(self):
        """The same PC with different branch history can predict
        differently — the mechanism of Fig. 3."""
        m = Mascot()
        uop = load_uop()

        def with_history(bits):
            m2 = Mascot()
            for b in bits:
                m2.on_branch(0x400000, b)
            return m2

        # Train context A (taken) as dependent.
        m_taken = with_history([True] * 8)
        for _ in range(3):
            p = m_taken.predict(uop)
            m_taken.train(uop, p, outcome_dep())
        keys_taken = m_taken.bank.keys(uop.pc)

        m_not = with_history([False] * 8)
        keys_not = m_not.bank.keys(uop.pc)
        # The higher-context tables must index/tag differently.
        assert any(
            keys_taken[t] != keys_not[t] for t in range(1, 8)
        )


class TestEndToEnd:
    def test_learns_synthetic_workload(self, perlbench_trace):
        m = Mascot()
        loads = drive_predictor(m, perlbench_trace)
        assert loads > 1000
        # The predictor must have used non-base tables substantially.
        tagged = sum(m.predictions_per_table[:-1])
        assert tagged > loads * 0.1

    def test_reset_clears_state(self, perlbench_trace):
        m = Mascot()
        drive_predictor(m, perlbench_trace)
        m.reset()
        assert sum(m.predictions_per_table) == 0
        assert all(t.occupancy() == 0 for t in m.bank.tables)
        assert m.predict(load_uop()).kind is PredictionKind.NO_DEP

    def test_beats_ablation_on_false_dependencies(self):
        """Sec. VI-B: without ND allocation, false dependencies explode."""
        from repro.analysis.accuracy import AccuracyStats, classify

        trace = small_trace("perlbench1", 30_000)

        def false_deps(m):
            stats = AccuracyStats()
            for uop, p, a in drive_predictor(m, trace, collect=True):
                stats.record(classify(p, a))
            return stats.false_dependencies

        mascot_fd = false_deps(Mascot())
        ablation_fd = false_deps(
            Mascot(MASCOT_DEFAULT.with_(name="no-nd",
                                        allocate_nondependencies=False))
        )
        assert ablation_fd > 3 * mascot_fd

"""Tests for the out-of-order timing model."""

import pytest

from repro.core.config import GOLDEN_COVE, LION_COVE
from repro.core.pipeline import Pipeline
from repro.predictors.mascot import Mascot
from repro.predictors.perfect import PerfectMDP, PerfectMDPSMB
from repro.trace.uop import BypassClass, MicroOp, OpClass

from tests.conftest import small_trace


def alu(seq, srcs=()):
    return MicroOp(seq, 0x400000 + 4 * seq, OpClass.ALU, srcs=tuple(srcs))


def run(trace, predictor=None, config=GOLDEN_COVE):
    pipeline = Pipeline(predictor or PerfectMDP(), config=config)
    return pipeline.run(trace)


class TestBasicTiming:
    def test_empty_chain_is_fast(self):
        """Independent ALU ops are bounded by width, not latency."""
        trace = [alu(i) for i in range(4000)]
        stats = run(trace)
        assert stats.ipc > 3.0

    def test_serial_chain_is_slow(self):
        """A fully serial dependency chain commits ~1 op per cycle."""
        trace = [alu(0)] + [alu(i, srcs=(i - 1,)) for i in range(1, 2000)]
        stats = run(trace)
        assert stats.ipc < 1.2

    def test_ipc_counts_all_instructions(self):
        trace = [alu(i) for i in range(100)]
        stats = run(trace)
        assert stats.instructions == 100
        assert stats.cycles > 0

    def test_div_slower_than_alu(self):
        serial_alu = [alu(0)] + [alu(i, srcs=(i - 1,)) for i in range(1, 500)]
        divs = [MicroOp(0, 0x400000, OpClass.DIV)] + [
            MicroOp(i, 0x400000 + 4 * i, OpClass.DIV, srcs=(i - 1,))
            for i in range(1, 500)
        ]
        assert run(divs).ipc < run(serial_alu).ipc


class TestWindows:
    def test_rob_limits_runahead(self):
        """A long-latency op at the head must eventually stall dispatch."""
        # One serial chain of divides + many independent ALUs behind it.
        trace = [MicroOp(0, 0x400000, OpClass.DIV)]
        for i in range(1, 20):
            trace.append(MicroOp(i, 0x400000, OpClass.DIV, srcs=(i - 1,)))
        trace.extend(alu(i) for i in range(20, 3000))
        small_rob = GOLDEN_COVE.with_(rob_size=64)
        big_rob = GOLDEN_COVE.with_(rob_size=2048)
        assert run(trace, config=small_rob).cycles >= run(
            trace, config=big_rob).cycles

    def test_wider_core_faster(self):
        trace = small_trace("x264", 15_000)
        narrow = run(trace, Mascot())
        wide = run(trace, Mascot(), config=LION_COVE)
        assert wide.ipc >= narrow.ipc


class TestBranches:
    def test_branches_counted(self):
        trace = small_trace("gcc1", 10_000)
        stats = run(trace)
        expected = sum(1 for u in trace if u.is_branch)
        assert stats.branches == expected

    def test_mispredictions_cost_cycles(self):
        """An unpredictable branch stream must run slower than a
        predictable one of identical structure."""
        import random
        rng = random.Random(0)

        def branch_trace(predictable):
            trace = []
            for i in range(4000):
                taken = (i % 2 == 0) if predictable else rng.random() < 0.5
                trace.append(MicroOp(i, 0x400100, OpClass.BRANCH_COND,
                                     taken=taken, target=0x400200))
            return trace

        fast = run(branch_trace(True))
        slow = run(branch_trace(False))
        assert slow.cycles > fast.cycles
        assert slow.branch_mispredictions > fast.branch_mispredictions


class TestLoadsAndStores:
    def _pair_trace(self, n_pairs=400, gap=3, bypass=BypassClass.DIRECT,
                    load_size=8, load_offset=0):
        """store -> filler ALUs -> dependent load, repeated."""
        trace = []
        seq = 0
        store_seqs = []
        for p in range(n_pairs):
            addr = 0x1000 + 64 * (p % 8)
            trace.append(MicroOp(seq, 0x400800, OpClass.STORE,
                                 address=addr, size=8))
            store_seqs.append(seq)
            seq += 1
            for _ in range(gap):
                trace.append(alu(seq))
                seq += 1
            trace.append(MicroOp(
                seq, 0x400900, OpClass.LOAD,
                address=addr + load_offset, size=load_size,
                store_distance=1, dep_store_seq=store_seqs[-1],
                bypass=bypass,
            ))
            seq += 1
        return trace

    def test_forwarding_counted(self):
        stats = run(self._pair_trace())
        assert stats.loads_forwarded > 300

    def test_bypass_counted_with_smb_oracle(self):
        stats = run(self._pair_trace(), predictor=PerfectMDPSMB())
        assert stats.loads_bypassed > 300
        assert stats.memory_squashes == 0

    def test_perfect_mdp_never_squashes(self, perlbench_trace):
        stats = run(perlbench_trace, PerfectMDP())
        assert stats.memory_squashes == 0

    def test_perfect_smb_never_squashes(self, perlbench_trace):
        stats = run(perlbench_trace, PerfectMDPSMB())
        assert stats.memory_squashes == 0

    def test_smb_oracle_at_least_as_fast(self, perlbench_trace):
        mdp = run(perlbench_trace, PerfectMDP())
        smb = run(perlbench_trace, PerfectMDPSMB())
        assert smb.ipc >= mdp.ipc

    def test_loads_and_stores_counted(self, perlbench_trace):
        stats = run(perlbench_trace)
        assert stats.loads == sum(1 for u in perlbench_trace if u.is_load)
        assert stats.stores == sum(1 for u in perlbench_trace if u.is_store)

    def test_real_predictor_squashes_sometimes(self, perlbench_trace):
        stats = run(perlbench_trace, Mascot())
        assert stats.memory_squashes > 0

    def test_accuracy_stats_attached(self, perlbench_trace):
        stats = run(perlbench_trace, Mascot())
        assert stats.accuracy.loads == stats.loads
        assert stats.accuracy.instructions == stats.instructions


class TestSquashCosts:
    def test_missed_dependencies_cost_cycles(self):
        """A predictor that always says no-dep must squash and lose time
        relative to perfect MDP on a dependence-heavy trace."""
        from repro.predictors.base import NO_PREDICTION, MDPredictor

        class AlwaysNoDep(MDPredictor):
            name = "always-no-dep"

            def lookup(self, uop):
                return NO_PREDICTION

            def update(self, *args):
                pass

        trace = small_trace("perlbench1", 20_000)
        naive = run(trace, AlwaysNoDep())
        oracle = run(trace, PerfectMDP())
        assert naive.memory_squashes > 50
        assert naive.ipc < oracle.ipc


class TestStats:
    def test_consumer_wait_tracked(self, perlbench_trace):
        stats = run(perlbench_trace)
        assert stats.load_consumers > 0
        assert stats.mean_consumer_wait >= 0.0

    def test_as_dict_complete(self, perlbench_trace):
        stats = run(perlbench_trace, Mascot())
        d = stats.as_dict()
        for key in ("ipc", "cycles", "loads", "memory_squashes",
                    "loads_bypassed", "mdp_mispredictions"):
            assert key in d

    def test_bypass_reduces_consumer_wait(self):
        """Sec. VI-A: bypassing cuts the issue-stage wait of load
        consumers (perlbench2: 38.7 -> 15.7 cycles)."""
        trace = small_trace("perlbench2", 20_000)
        mdp = run(trace, PerfectMDP())
        smb = run(trace, PerfectMDPSMB())
        assert smb.mean_consumer_wait < mdp.mean_consumer_wait


class TestSingleUse:
    def test_second_run_rejected(self):
        trace = [alu(i) for i in range(100)]
        pipeline = Pipeline(PerfectMDP())
        pipeline.run(trace)
        with pytest.raises(RuntimeError):
            pipeline.run(trace)

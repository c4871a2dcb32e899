"""Regression tests for the three measurement/accounting fixes.

Each test fails on the pre-fix pipeline:

* the consumer-wait metric counted *every* ALU/MUL/DIV/FP op with a
  source as a "load consumer" instead of only consumers of load values;
* ``StoreTiming.drain`` kept its provisional (over-long) value forever
  and loads happily forwarded from stores that had left the store
  buffer;
* (the warmup branch-MPKI fix is covered in ``test_warmup.py``).
"""

from repro.core.config import GOLDEN_COVE
from repro.core.lsu import StoreTiming, StoreWindow
from repro.core.pipeline import Pipeline
from repro.predictors.perfect import PerfectMDP
from repro.trace.uop import BypassClass, MicroOp, OpClass


def alu(seq, srcs=()):
    return MicroOp(seq, 0x400000 + 4 * seq, OpClass.ALU, srcs=tuple(srcs))


def div(seq, srcs=()):
    return MicroOp(seq, 0x400000 + 4 * seq, OpClass.DIV, srcs=tuple(srcs))


def store(seq, addr):
    return MicroOp(seq, 0x400800 + 4 * seq, OpClass.STORE,
                   address=addr, size=8)


def load(seq, addr, dep_store_seq=None, distance=0, addr_src=None):
    bypass = BypassClass.DIRECT if distance else BypassClass.NONE
    return MicroOp(seq, 0x400900 + 4 * seq, OpClass.LOAD, address=addr,
                   size=8, addr_src=addr_src, store_distance=distance,
                   dep_store_seq=dep_store_seq, bypass=bypass)


class TestConsumerWaitMetric:
    def test_only_load_consumers_counted(self):
        trace = [
            load(0, 0x1000),
            alu(1, srcs=(0,)),   # consumes the load: counted
            alu(2, srcs=(1,)),   # consumes an ALU value: NOT a load consumer
            alu(3, srcs=(2,)),
        ]
        stats = Pipeline(PerfectMDP()).run(trace)
        assert stats.load_consumers == 1

    def test_mixed_sources_count_once(self):
        trace = [
            load(0, 0x1000),
            alu(1),
            alu(2, srcs=(0, 1)),  # one load source among several: counted
        ]
        stats = Pipeline(PerfectMDP()).run(trace)
        assert stats.load_consumers == 1

    def test_load_consumer_waits_for_the_load(self):
        trace = [load(0, 0x1000), alu(1, srcs=(0,))]
        stats = Pipeline(PerfectMDP()).run(trace)
        assert stats.load_consumers == 1
        # An L1 miss-free load still takes several cycles past dispatch.
        assert stats.load_consumer_wait_cycles > 0


class TestSbDrainCutoff:
    def _trace(self, chain=12):
        """A store, a long DIV chain, then a dependent load whose address
        hangs off the chain — so it issues long after the store drained."""
        trace = [store(0, 0x2000), div(1)]
        for seq in range(2, chain + 1):
            trace.append(div(seq, srcs=(seq - 1,)))
        trace.append(load(chain + 1, 0x2000, dep_store_seq=0, distance=1,
                          addr_src=chain))
        return trace

    def test_late_load_reads_cache_not_sb(self):
        stats = Pipeline(PerfectMDP()).run(self._trace())
        assert stats.loads_forwarded == 0

    def test_timely_load_still_forwards(self):
        trace = [store(0, 0x2000),
                 load(1, 0x2000, dep_store_seq=0, distance=1)]
        stats = Pipeline(PerfectMDP()).run(trace)
        assert stats.loads_forwarded == 1

    def test_drain_refined_from_commit_cycle(self):
        pipeline = Pipeline(PerfectMDP())
        pipeline.run(self._trace())
        timing = pipeline._stores.by_seq(0)
        commit = pipeline._commit_times[0]
        assert timing.drain == commit + GOLDEN_COVE.sb_drain_latency


class TestStoreWindowEvictions:
    def _timing(self, seq):
        return StoreTiming(seq=seq, pc=0x400200, addr_resolve=10,
                           data_ready=12, drain=100, branch_count=0)

    def test_eviction_counter(self):
        window = StoreWindow(capacity=2)
        for seq in range(5):
            window.add(self._timing(seq))
        assert window.evictions == 3
        assert len(window) == 2

    def test_no_evictions_below_capacity(self):
        window = StoreWindow(capacity=4)
        for seq in range(3):
            window.add(self._timing(seq))
        assert window.evictions == 0

    def test_reset_clears_but_keeps_lifetime_count(self):
        window = StoreWindow(capacity=1)
        window.add(self._timing(0))
        window.add(self._timing(1))
        assert window.evictions == 1
        window.reset()
        assert len(window) == 0
        assert window.by_distance(1) is None

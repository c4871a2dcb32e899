"""Tests for the trace validator."""

import pytest

from repro.trace.generator import generate_trace
from repro.trace.profiles import suite_names
from repro.trace.uop import BypassClass, MicroOp, OpClass
from repro.trace.validate import (
    TraceValidationError,
    validate_trace,
)

from tests.conftest import small_trace


def alu(seq, srcs=()):
    return MicroOp(seq, 0x400000 + 4 * seq, OpClass.ALU, srcs=tuple(srcs))


def store(seq, addr=0x1000, size=8):
    return MicroOp(seq, 0x400800, OpClass.STORE, address=addr, size=size)


def dep_load(seq, dep, distance=1, addr=0x1000, size=8,
             bypass=BypassClass.DIRECT):
    return MicroOp(seq, 0x400900, OpClass.LOAD, address=addr, size=size,
                   store_distance=distance, dep_store_seq=dep, bypass=bypass)


class TestValidTraces:
    def test_generated_traces_validate(self):
        for bench in suite_names():
            trace = small_trace(bench, 10_000)
            report = validate_trace(trace)
            assert report.ok
            assert report.uops == 10_000
            assert report.loads > 0

    def test_small_window_trace_validates(self):
        # Four store-buffer entries and a 32-uop reorder window: some
        # pair dependences fall out of the window, so the tracker's
        # eviction and pruning decide annotations.
        windows = {"store_window": 4, "instr_window": 32}
        trace = generate_trace("perlbench1", 10_000, **windows)
        report = validate_trace(trace, **windows)
        assert report.ok
        default = small_trace("perlbench1", 10_000)
        assert 0 < report.dependent_loads < validate_trace(
            default).dependent_loads

    def test_minimal_pair(self):
        trace = [store(0), dep_load(1, dep=0)]
        assert validate_trace(trace).ok

    def test_report_counters(self):
        trace = [alu(0), store(1), dep_load(2, dep=1)]
        report = validate_trace(trace)
        assert report.stores == 1
        assert report.loads == 1
        assert report.dependent_loads == 1


class TestBrokenTraces:
    def _check(self, trace, fragment):
        with pytest.raises(TraceValidationError) as err:
            validate_trace(trace)
        assert fragment in str(err.value)
        report = validate_trace(trace, strict=False)
        assert not report.ok

    def test_sequence_gap(self):
        self._check([alu(0), alu(2)], "sequence number")

    def test_dangling_source(self):
        self._check([alu(0, srcs=(5,))], "not an earlier uop")

    def test_source_not_producer(self):
        # A store produces no value; consuming it is invalid.
        self._check([store(0), alu(1, srcs=(0,))], "not a value producer")

    def test_bad_addr_src(self):
        trace = [store(0), dep_load(1, dep=0)]
        trace[1] = MicroOp(1, 0x400900, OpClass.LOAD, address=0x1000,
                           size=8, store_distance=1, dep_store_seq=0,
                           bypass=BypassClass.DIRECT, addr_src=40)
        self._check(trace, "addr_src")

    def test_dep_on_non_store(self):
        self._check([alu(0), dep_load(1, dep=0)], "is not a store")

    def test_wrong_bypass_class(self):
        # Same address and size is DIRECT, not OFFSET.
        self._check([store(0), dep_load(1, dep=0,
                                        bypass=BypassClass.OFFSET)],
                    "does not match geometry")

    def test_wrong_distance(self):
        trace = [store(0), store(1, addr=0x2000), dep_load(2, dep=0,
                                                           distance=1)]
        self._check(trace, "store_distance")

    def test_not_youngest_overlap(self):
        # Two stores to the same address; the load names the older one.
        trace = [store(0), store(1), dep_load(2, dep=0, distance=2)]
        self._check(trace, "younger overlapping store")

    def test_false_independence(self):
        trace = [store(0),
                 MicroOp(1, 0x400900, OpClass.LOAD, address=0x1000, size=8)]
        self._check(trace, "annotated independent")

    def test_window_violation(self):
        trace = [store(0)]
        trace += [alu(i) for i in range(1, 600)]
        trace.append(dep_load(600, dep=0))
        self._check(trace, "instruction window")

    def test_max_errors_bounds_report(self):
        trace = [alu(0, srcs=())]
        trace += [alu(i, srcs=(10_000,)) for i in range(1, 100)]
        report = validate_trace(trace, strict=False, max_errors=5)
        assert len(report.errors) == 5

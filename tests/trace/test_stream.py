"""Tests for trace serialization."""

import io

import pytest

from repro.trace.columns import Trace
from repro.trace.stream import TraceFormatError, read_trace, write_trace
from repro.trace.uop import BypassClass, MicroOp, OpClass

from tests.conftest import small_trace


def roundtrip(trace, benchmark="test"):
    buffer = io.StringIO()
    write_trace(trace, buffer, benchmark=benchmark)
    buffer.seek(0)
    return read_trace(buffer)


class TestRoundtrip:
    def test_full_trace_roundtrips(self):
        trace = small_trace("perlbench1", 5_000)
        loaded = roundtrip(trace)
        assert len(loaded) == len(trace)
        for a, b in zip(trace, loaded):
            assert a.seq == b.seq
            assert a.pc == b.pc
            assert a.op == b.op
            assert a.srcs == b.srcs
            assert a.addr_src == b.addr_src
            assert a.taken == b.taken
            assert a.target == b.target
            assert a.address == b.address
            assert a.size == b.size
            assert a.store_distance == b.store_distance
            assert a.dep_store_seq == b.dep_store_seq
            assert a.bypass == b.bypass

    def test_file_roundtrip(self, tmp_path):
        trace = small_trace("exchange2", 2_000)
        path = tmp_path / "trace.txt"
        write_trace(trace, path, benchmark="exchange2")
        loaded = read_trace(path)
        assert len(loaded) == 2_000

    def test_reads_a_trace_with_the_written_columns(self):
        trace = small_trace("mcf", 3_000)
        loaded = roundtrip(trace)
        assert isinstance(loaded, Trace) and loaded.materialized
        assert loaded.columns.equals(trace.columns)

    def test_replay_equivalence(self):
        """A reloaded trace must drive a predictor identically."""
        from repro.experiments.runner import run_prediction_only
        from repro.predictors.mascot import Mascot

        trace = small_trace("perlbench1", 8_000)
        original = run_prediction_only(trace, Mascot())
        reloaded = run_prediction_only(roundtrip(trace), Mascot())
        assert (original.accuracy.outcome_counts
                == reloaded.accuracy.outcome_counts)


class TestValidation:
    def test_bad_header(self):
        with pytest.raises(TraceFormatError):
            read_trace(io.StringIO("not a trace\n"))

    def test_wrong_version(self):
        with pytest.raises(TraceFormatError):
            read_trace(io.StringIO("#repro-trace v99 x 0\n"))

    def test_truncated_file(self):
        trace = small_trace("exchange2", 100)
        buffer = io.StringIO()
        write_trace(trace, buffer)
        text = buffer.getvalue()
        truncated = "\n".join(text.splitlines()[:50])
        with pytest.raises(TraceFormatError):
            read_trace(io.StringIO(truncated))

    def test_field_count_checked(self):
        with pytest.raises(TraceFormatError):
            read_trace(io.StringIO(
                "#repro-trace v1 x 1\n0 alu 400000\n"
            ))

    def test_sequence_gap_detected(self):
        uop = MicroOp(5, 0x400000, OpClass.ALU)  # seq 5, not 0
        buffer = io.StringIO()
        write_trace([uop], buffer)
        buffer.seek(0)
        with pytest.raises(TraceFormatError):
            read_trace(buffer)

    def test_garbage_field(self):
        with pytest.raises(TraceFormatError):
            read_trace(io.StringIO(
                "#repro-trace v1 x 1\n"
                "0 alu zz - - 0 0 0 0 0 - none\n"
            ))

    @pytest.mark.parametrize("line", [
        "1 alu 400004 -5 - 0 0 0 0 0 - none",   # negative source
        "1 alu 400004 - - 0 0 fffffffffffffffff 0 0 - none",  # > int64
    ], ids=["negative-source", "wide-address"])
    def test_value_the_columns_cannot_hold(self, line):
        with pytest.raises(TraceFormatError):
            read_trace(io.StringIO(
                "#repro-trace v1 x 2\n"
                "0 alu 400000 - - 0 0 0 0 0 - none\n" + line + "\n"
            ))


class TestSpecialCases:
    def test_dependent_load(self):
        store = MicroOp(0, 0x400000, OpClass.STORE, address=0x1000, size=8)
        load = MicroOp(1, 0x400004, OpClass.LOAD, address=0x1000, size=8,
                       store_distance=1, dep_store_seq=0,
                       bypass=BypassClass.DIRECT, addr_src=0)
        loaded = roundtrip([store, load])
        assert loaded[1].has_dependence
        assert loaded[1].bypass is BypassClass.DIRECT
        assert loaded[1].addr_src == 0

    def test_empty_trace(self):
        assert roundtrip([]) == []

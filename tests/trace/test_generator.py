"""Tests for the dynamic trace generator."""

import dataclasses
import enum
from collections import Counter

import pytest

from repro.common.hashing import stable_digest
from repro.trace import build_program, generate_trace, get_profile
from repro.trace.dependence import classify_overlap
from repro.trace.generator import TraceGenerator
from repro.trace.uop import BypassClass, MicroOp, OpClass


def _generate(benchmark="perlbench1", n=15_000, **kwargs):
    program = build_program(get_profile(benchmark), seed=0)
    return TraceGenerator(program, seed=1, **kwargs).generate(n)


class TestBasics:
    def test_length(self):
        assert len(_generate(n=5000)) == 5000

    def test_sequential_seq_numbers(self):
        trace = _generate(n=3000)
        assert [u.seq for u in trace] == list(range(3000))

    def test_deterministic(self):
        t1 = _generate(n=4000)
        t2 = _generate(n=4000)
        assert all(
            a.pc == b.pc and a.op == b.op and a.address == b.address
            and a.taken == b.taken
            for a, b in zip(t1, t2)
        )

    def test_different_trace_seeds_differ(self):
        program = build_program(get_profile("perlbench1"), seed=0)
        t1 = TraceGenerator(program, seed=1).generate(4000)
        t2 = TraceGenerator(program, seed=2).generate(4000)
        assert any(a.taken != b.taken for a, b in zip(t1, t2)
                   if a.op is OpClass.BRANCH_COND)

    def test_invalid_length(self):
        program = build_program(get_profile("gcc1"), seed=0)
        with pytest.raises(ValueError):
            TraceGenerator(program).generate(0)

    def test_convenience_wrapper(self):
        trace = generate_trace("exchange2", 2000)
        assert len(trace) == 2000


class TestInstructionMix:
    def test_mix_roughly_matches_profile(self):
        profile = get_profile("gcc1")
        trace = _generate("gcc1", n=30_000)
        counts = Counter(u.op for u in trace)
        load_frac = counts[OpClass.LOAD] / len(trace)
        store_frac = counts[OpClass.STORE] / len(trace)
        assert abs(load_frac - profile.frac_load) < 0.10
        assert abs(store_frac - profile.frac_store) < 0.08

    def test_contains_branches_and_fp(self):
        trace = _generate("bwaves", n=20_000)
        ops = {u.op for u in trace}
        assert OpClass.BRANCH_COND in ops
        assert OpClass.FP in ops


class TestDataflow:
    def test_sources_reference_earlier_uops(self):
        trace = _generate(n=20_000)
        for uop in trace:
            for src in uop.srcs:
                assert 0 <= src < uop.seq

    def test_sources_reference_value_producers(self):
        trace = _generate(n=20_000)
        producers = {}
        for uop in trace:
            for src in uop.srcs:
                producer = producers.get(src)
                assert producer is not None, "src must be a producing op"
            if uop.op in (OpClass.ALU, OpClass.MUL, OpClass.DIV, OpClass.FP,
                          OpClass.LOAD):
                producers[uop.seq] = uop

    def test_loads_feed_consumers(self):
        trace = _generate("perlbench2", n=20_000)
        load_seqs = {u.seq for u in trace if u.is_load}
        consumers = sum(
            1 for u in trace
            if not u.is_load and any(s in load_seqs for s in u.srcs)
        )
        assert consumers > 100


class TestDependenceAnnotations:
    def test_annotations_consistent_with_addresses(self):
        """Every annotated dependence must be a real byte overlap with the
        annotated store, and the bypass class must match the geometry."""
        trace = _generate(n=25_000)
        stores = {u.seq: u for u in trace if u.is_store}
        for uop in trace:
            if not (uop.is_load and uop.has_dependence):
                continue
            store = stores[uop.dep_store_seq]
            cls = classify_overlap(store.address, store.size,
                                   uop.address, uop.size)
            assert cls is uop.bypass

    def test_annotated_store_is_youngest_overlap(self):
        trace = _generate(n=25_000)
        recent_stores = []
        for uop in trace:
            if uop.is_store:
                recent_stores.append(uop)
                continue
            if not (uop.is_load and uop.has_dependence):
                continue
            # No younger store (after the annotated one) may overlap.
            for store in reversed(recent_stores):
                if store.seq <= uop.dep_store_seq:
                    break
                overlap = classify_overlap(store.address, store.size,
                                           uop.address, uop.size)
                assert overlap is BypassClass.NONE

    def test_distance_counts_stores(self):
        trace = _generate(n=25_000)
        store_count = 0
        store_number = {}
        for uop in trace:
            if uop.is_store:
                store_number[uop.seq] = store_count
                store_count += 1
            elif uop.is_load and uop.has_dependence:
                expected = store_count - store_number[uop.dep_store_seq]
                assert uop.store_distance == expected

    def test_dependences_within_windows(self):
        trace = _generate(n=25_000, store_window=114, instr_window=512)
        for uop in trace:
            if uop.is_load and uop.has_dependence:
                assert uop.seq - uop.dep_store_seq <= 512
                assert uop.store_distance <= 114

    def test_smaller_instr_window_reduces_dependences(self):
        wide = _generate(n=20_000, instr_window=512)
        narrow = _generate(n=20_000, instr_window=64)
        wide_deps = sum(u.has_dependence for u in wide if u.is_load)
        narrow_deps = sum(u.has_dependence for u in narrow if u.is_load)
        assert narrow_deps < wide_deps


class TestBenchmarkCharacter:
    def test_dep_fraction_ordering(self):
        """Fig. 2's qualitative ordering must hold in generated traces."""
        def dep_frac(name):
            trace = _generate(name, n=20_000)
            loads = [u for u in trace if u.is_load]
            return sum(u.has_dependence for u in loads) / len(loads)

        assert dep_frac("perlbench2") > 0.2
        assert dep_frac("lbm") > 0.25
        assert dep_frac("bwaves") < 0.10
        assert dep_frac("exchange2") < 0.10

    def test_direct_bypass_dominates(self):
        """Fig. 2: the same-size aligned case is the overwhelming fraction."""
        trace = _generate("perlbench1", n=30_000)
        classes = Counter(
            u.bypass for u in trace if u.is_load and u.has_dependence
        )
        assert classes[BypassClass.DIRECT] > classes[BypassClass.OFFSET]
        assert classes[BypassClass.DIRECT] > classes[BypassClass.MDP_ONLY]

    def test_conditional_dependences_exist(self):
        """Some static loads must alternate dependent/non-dependent."""
        trace = _generate("perlbench1", n=30_000)
        by_pc = {}
        for u in trace:
            if u.is_load:
                by_pc.setdefault(u.pc, []).append(u.has_dependence)
        alternating = [
            pc for pc, flags in by_pc.items()
            if len(flags) > 20 and 0.2 < sum(flags) / len(flags) < 0.95
        ]
        assert alternating, "expected branch-conditional dependencies"


def _trace_digest(trace):
    """``stable_digest`` over every field of every micro-op, in order."""
    names = [f.name for f in dataclasses.fields(MicroOp)]

    def encode(value):
        return value.value if isinstance(value, enum.Enum) else value

    return stable_digest([[encode(getattr(uop, name)) for name in names]
                          for uop in trace])


#: (benchmark, trace seed, tracker windows, digest) at 20k micro-ops.
_PINNED = [
    ("perlbench1", 1, {},
     "57be4928206eee70d4ce3b617fc75246a03222f926c7bb1002e0edfa6da68aee"),
    ("perlbench1", 5, {},
     "d316bbb0efbb76fd8ec96173166980ac82e943271acf9efd4f386d7f996c481e"),
    ("lbm", 1, {},
     "1e22782a09fa554c3e2ad295e8ed50b2f3a74150426eab2cea0e9a6e45c63f3e"),
    ("lbm", 5, {},
     "de5aab65fed8b45cab4e8204f616e7bc8bd33badabb751bba9cb4f8ca4685486"),
    ("mcf", 1, {},
     "ecd2e3a7a7828ea7e4f6745f8d21e80ff8be33aa6320676300b1c42d9638025d"),
    ("mcf", 5, {},
     "b25d0c4ec201818b7d17d3b4ccdf7c655ad8c5eee8c4930a6a05e89c39c3ba95"),
    ("omnetpp", 1, {},
     "260e3c590e4f59acd0efebf16b88247224c4a9b6570436e0371ad165734f42e1"),
    ("omnetpp", 5, {},
     "23b1363c5b6e74b00af907250c23466bb96372acfba62e6d9a15a3bd19dc2c74"),
    ("perlbench1", 1, {"store_window": 8, "instr_window": 64},
     "19dac4a91549cdd34988ccc0329c4da8aa4b6d2a6a0999ee69253161199bfb2f"),
]


class TestPinnedTraces:
    """Generated streams are pinned field for field.

    Every figure, golden result and cache entry derives from these
    streams, so any drift in the generator or the dependence tracker --
    one changed address, source or store distance -- fails here first.
    """

    @pytest.mark.parametrize(
        "name, trace_seed, windows, digest", _PINNED,
        ids=[f"{name}-seed{seed}" + ("-small-window" if windows else "")
             for name, seed, windows, _ in _PINNED])
    def test_trace_digest(self, name, trace_seed, windows, digest):
        trace = generate_trace(name, 20_000, trace_seed=trace_seed,
                               **windows)
        assert _trace_digest(trace) == digest

"""Dynamic trace generation.

:class:`TraceGenerator` unrolls a static :class:`~repro.trace.program.Program`
into a stream of annotated :class:`~repro.trace.uop.MicroOp` records.  The
generator is the single source of ground truth: it evaluates every branch,
computes every effective address, tracks the dynamic store stream through a
:class:`~repro.trace.dependence.DependenceTracker` and stamps each load with
its true store distance and bypass class.  Both the prediction-only harness
and the timing pipeline consume the same stream, so accuracy numbers and IPC
numbers always agree about which loads were dependent.

Dataflow is modelled with explicit producer links: every value-producing
micro-op can be named as a source by later ops.  The profile's ``chain_bias``
and ``load_consumer_fraction`` control how deep dependency chains grow and
how often computation consumes fresh load results — the two knobs that decide
how much IPC is gained when SMB delivers load values early.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Deque, Iterator, List, Optional, Tuple

from .dependence import DependenceTracker
from .profiles import WorkloadProfile, get_profile
from .program import (
    Program,
    StaticInst,
    StaticKind,
    build_program,
)
from .uop import BypassClass, MicroOp, OpClass

__all__ = ["TraceGenerator", "generate_trace"]

#: How many recent producers are eligible as random dataflow sources.
_RECENT_WINDOW = 24


class TraceGenerator:
    """Generates the dynamic micro-op stream for one synthetic benchmark.

    Parameters
    ----------
    program:
        The static program to unroll (see :func:`build_program`).
    seed:
        Seed for all *dynamic* randomness (branch noise, dataflow sampling).
        Distinct from the program's structural seed so that the same static
        program can produce independent trace samples.
    store_window / instr_window:
        In-flight bounds handed to the dependence tracker; defaults match
        the Golden Cove store buffer (114) and ROB (512) of Table I.
    """

    def __init__(
        self,
        program: Program,
        seed: int = 1,
        store_window: int = 114,
        instr_window: int = 512,
    ):
        self.program = program
        self.profile = program.profile
        self._rng = random.Random(seed ^ 0x5EED)
        self._tracker = DependenceTracker(store_window, instr_window)
        self._seq = 0
        self._iteration = 0
        # Dataflow state.
        self._recent: Deque[int] = deque(maxlen=_RECENT_WINDOW)
        self._chain_head: Optional[int] = None
        self._last_load: Optional[int] = None
        # Per-static-instruction stream-load cursors, keyed by id().
        self._cursors = {}

    # -- dataflow helpers ---------------------------------------------------

    def _pick_source(self) -> Optional[int]:
        """Sample one dataflow source according to the chain bias."""
        if not self._recent:
            return None
        if self._chain_head is not None and (
            self._rng.random() < self.profile.chain_bias
        ):
            return self._chain_head
        return self._rng.choice(self._recent)

    def _compute_sources(self, want_two: bool) -> Tuple[int, ...]:
        srcs: List[int] = []
        first = self._pick_source()
        if first is not None:
            srcs.append(first)
        if want_two and self._recent and self._rng.random() < 0.5:
            second = self._rng.choice(self._recent)
            if second not in srcs:
                srcs.append(second)
        # Consumers of the most recent load model load-latency sensitivity.
        if (
            self._last_load is not None
            and self._last_load not in srcs
            and self._rng.random() < self.profile.load_consumer_fraction
        ):
            srcs.append(self._last_load)
        return tuple(srcs)

    def _produce(self, seq: int) -> None:
        self._recent.append(seq)
        self._chain_head = seq

    # -- per-kind emission ----------------------------------------------------

    def _emit(self, inst: StaticInst) -> MicroOp:
        seq = self._seq
        self._seq += 1
        kind = inst.kind

        if kind in (StaticKind.ALU, StaticKind.MUL, StaticKind.DIV, StaticKind.FP):
            uop = MicroOp(seq, inst.pc, inst.op_class,
                          srcs=self._compute_sources(want_two=True))
            self._produce(seq)
            return uop

        if kind is StaticKind.BRANCH:
            taken = inst.branch.outcome(self._iteration, self._rng)
            srcs = ()
            if self._recent and self._rng.random() < 0.5:
                srcs = (self._rng.choice(self._recent),)
            return MicroOp(seq, inst.pc, OpClass.BRANCH_COND, srcs=srcs,
                           taken=taken, target=inst.pc + 0x20)

        if kind is StaticKind.BRANCH_INDIRECT:
            target = inst.indirect.target(self._iteration, self._rng)
            return MicroOp(seq, inst.pc, OpClass.BRANCH_INDIRECT,
                           taken=True, target=target)

        if kind in (StaticKind.STORE_PAIR, StaticKind.STORE_FILLER):
            if kind is StaticKind.STORE_PAIR:
                address = inst.pair.store_address(self._iteration,
                                                  inst.writer_stride)
                size = inst.pair.store_size
                # Pair stores write values computed earlier (a spilled
                # register, a field produced upstream): their data is ready
                # well before younger loads could complete, which is what
                # makes bypassing them profitable.
                data_src = self._recent[0] if self._recent else None
            else:
                address = inst.filler_address
                size = 8
                data_src = self._pick_source()
            srcs = (data_src,) if data_src is not None else ()
            # A fraction of stores compute their address from live dataflow
            # (pointer writes): their address resolves late, giving MDP
            # decisions real timing consequences.
            addr_src = None
            if inst.force_addr_chain and self._chain_head is not None:
                # A computed-address write: the address hangs off the live
                # dataflow chain, so it resolves moderately late — waiting
                # behind this store when it is not the actual producer
                # (Store Sets' serialise-behind-last-fetched policy) costs
                # real cycles.
                addr_src = self._chain_head
            elif (
                self._recent
                and self._rng.random() < self.profile.store_addr_chain_fraction
            ):
                addr_src = self._pick_source()
            uop = MicroOp(seq, inst.pc, OpClass.STORE, srcs=srcs,
                          address=address, size=size, addr_src=addr_src)
            self._tracker.record_raw_store(seq, address, size)
            return uop

        if kind in (StaticKind.LOAD_PAIR, StaticKind.LOAD_STREAM):
            if kind is StaticKind.LOAD_PAIR:
                address = inst.pair.load_address(self._iteration)
                size = inst.pair.load_size
            else:
                # Identity-keyed per-generator cursor dict: never ordered
                # or serialised, so the process-specific ids are safe.
                # repro-lint: allow(det-id) -- identity-only dict key
                cursor = self._cursors.get(id(inst), 0)
                if inst.stream_random:
                    offset = self._rng.randrange(
                        max(self.profile.footprint // 8, 1)
                    ) * 8
                else:
                    offset = (cursor * inst.stream_stride) % self.profile.footprint
                self._cursors[id(inst)] = cursor + 1  # repro-lint: allow(det-id)
                address = inst.stream_start + offset
                size = 8
            distance, store, bypass = self._tracker.find_dependence(
                address, size, seq
            )
            addr_src: Optional[int] = None
            if kind is StaticKind.LOAD_PAIR:
                # Pair loads compute their address from live dataflow
                # (pointer chases, index arithmetic): with probability
                # chain_bias the address hangs off the current chain head,
                # so the load issues late — exactly when obtaining its value
                # early through SMB pays off (the perlbench2 effect of
                # Sec. VI-A).
                addr_src = self._pick_source()
            elif self._recent and self._rng.random() < 0.3:
                addr_src = self._rng.choice(self._recent)
            uop = MicroOp(
                seq, inst.pc, OpClass.LOAD, addr_src=addr_src,
                address=address, size=size,
                store_distance=distance,
                dep_store_seq=store.seq if store is not None else None,
                bypass=bypass,
            )
            # Whether the load's value feeds the critical dataflow chain is
            # the profile's sensitivity knob: lbm-style streaming kernels
            # rarely chain on loaded values (bypassing helps little) while
            # perlbench-style interpreters almost always do (Sec. VI-A).
            if self._rng.random() < self.profile.load_consumer_fraction:
                self._produce(seq)
            else:
                self._recent.append(seq)
            self._last_load = seq
            return uop

        raise AssertionError(f"unhandled static kind {kind}")

    # -- main loop ----------------------------------------------------------------

    def __iter__(self) -> Iterator[MicroOp]:
        """Yield micro-ops forever; callers bound the stream length."""
        while True:
            for segment in self.program.segments:
                if segment.guard is not None:
                    guard_uop = self._emit(segment.guard)
                    yield guard_uop
                    if not guard_uop.taken:
                        continue  # segment skipped this iteration
                for inst in segment.body:
                    yield self._emit(inst)
            yield self._emit(self.program.loop_branch)
            self._iteration += 1

    def generate(self, num_uops: int) -> List[MicroOp]:
        """Materialise the first ``num_uops`` micro-ops."""
        if num_uops <= 0:
            raise ValueError("num_uops must be positive")
        out: List[MicroOp] = []
        for uop in self:
            out.append(uop)
            if len(out) >= num_uops:
                break
        return out


def generate_trace(
    benchmark: str,
    num_uops: int,
    program_seed: int = 0,
    trace_seed: int = 1,
    store_window: int = 114,
    instr_window: int = 512,
) -> List[MicroOp]:
    """Convenience one-call trace generation for a named suite benchmark.

    >>> trace = generate_trace("perlbench1", 10_000)
    >>> any(u.is_load and u.has_dependence for u in trace)
    True
    """
    profile = get_profile(benchmark)
    program = build_program(profile, seed=program_seed)
    generator = TraceGenerator(
        program, seed=trace_seed,
        store_window=store_window, instr_window=instr_window,
    )
    return generator.generate(num_uops)

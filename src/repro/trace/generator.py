"""Dynamic trace generation.

:class:`TraceGenerator` unrolls a static :class:`~repro.trace.program.Program`
into the dynamic micro-op stream, written field by field into preallocated
machine-typed buffers (:class:`array.array`, wrapped without a copy as the
numpy columns) and returned as a :class:`~repro.trace.columns.Trace` (its
:class:`~repro.trace.columns.TraceColumns`, with micro-op objects as a lazy
view).  The generator is the single source of ground truth: it evaluates
every branch, computes every effective address, tracks the dynamic store
stream through a :class:`~repro.trace.dependence.DependenceTracker` and
stamps each load with its true store distance and bypass class.  Both the
prediction-only harness and the timing pipeline consume the same stream,
so accuracy numbers and IPC numbers always agree about which loads were
dependent.  Every :class:`~repro.trace.uop.MicroOp` invariant is checked
once, vectorised, over the finished columns
(:meth:`~repro.trace.columns.TraceColumns.check_invariants`).

Dataflow is modelled with explicit producer links: every value-producing
micro-op can be named as a source by later ops.  The profile's ``chain_bias``
and ``load_consumer_fraction`` control how deep dependency chains grow and
how often computation consumes fresh load results — the two knobs that decide
how much IPC is gained when SMB delivers load values early.
"""

from __future__ import annotations

import random
from array import array
from collections import deque
from typing import Deque, Optional

import numpy as np

from .columns import (
    BYPASS_CODES,
    COLUMN_DTYPES,
    MAX_UOPS,
    OP_CODES,
    SRC_SLOTS,
    Trace,
    TraceColumns,
)
from .dependence import DependenceTracker
from .profiles import get_profile
from .program import Program, StaticInst, StaticKind, build_program
from .uop import BypassClass, OpClass

__all__ = ["TraceGenerator", "generate_trace"]

#: How many recent producers are eligible as random dataflow sources.
_RECENT_WINDOW = 24

_OP_LOAD = OP_CODES[OpClass.LOAD]
_OP_STORE = OP_CODES[OpClass.STORE]
_OP_BC = OP_CODES[OpClass.BRANCH_COND]
_OP_BI = OP_CODES[OpClass.BRANCH_INDIRECT]
_BYPASS_NONE = BYPASS_CODES[BypassClass.NONE]
#: Codes keyed by member name: string hashes are cached, enum member
#: hashes are computed in Python on every lookup.
_OP_CODE_BY_NAME = {op.name: code for op, code in OP_CODES.items()}
_BYPASS_CODE_BY_NAME = {bc.name: code for bc, code in BYPASS_CODES.items()}

_COMPUTE_KINDS = (StaticKind.ALU, StaticKind.MUL, StaticKind.DIV,
                  StaticKind.FP)

#: :mod:`array` typecode of each column's buffer, of the same item size as
#: the column dtype, so the buffer *is* the column; ``srcs`` is ``"i"``.
_TYPECODES = {"pc": "q", "op": "b", "taken": "B", "target": "q",
              "address": "q", "size": "i", "addr_src": "i",
              "store_distance": "i", "dep_store_seq": "i", "bypass": "b"}
#: Field defaults the buffers start from (0 for the other columns).
_FILLS = {"addr_src": -1, "dep_store_seq": -1, "bypass": _BYPASS_NONE}


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

    def _compute_sources(self, seq: int) -> None:
        """Write a compute op's (up to three, distinct) sources."""
        srcs = self._srcs
        slot = SRC_SLOTS * seq
        first = self._pick_source()
        if first is not None:
            srcs[slot] = first
            slot += 1
        second = None
        if self._recent and self._rng.random() < 0.5:
            second = self._rng.choice(self._recent)
            if second == first:
                second = None
            else:
                srcs[slot] = second
                slot += 1
        # Consumers of the most recent load model load-latency sensitivity.
        last_load = self._last_load
        if (
            last_load is not None
            and last_load != first and last_load != second
            and self._rng.random() < self.profile.load_consumer_fraction
        ):
            srcs[slot] = last_load

    def _produce(self, seq: int) -> None:
        self._recent.append(seq)
        self._chain_head = seq

    # -- per-kind emission ----------------------------------------------------

    def _open(self, n: int) -> None:
        """A typed buffer ``self._<column>`` per column for ``n`` micro-ops,
        pre-filled with the field defaults; :meth:`_emit` writes only the
        fields an op class uses.  ``_srcs`` holds :data:`SRC_SLOTS`
        ``-1``-padded slots per op."""
        for name, code in _TYPECODES.items():
            setattr(self, "_" + name, array(code, [_FILLS.get(name, 0)]) * n)
        self._srcs = array("i", [-1]) * (SRC_SLOTS * n)

    def _close(self) -> TraceColumns:
        """The filled buffers as checked columns, wrapped without a copy;
        the generator's own references are dropped."""
        columns = TraceColumns.from_arrays(
            np.frombuffer(self._srcs, dtype=np.int32).reshape(-1, SRC_SLOTS),
            **{name: np.frombuffer(getattr(self, "_" + name), dtype=dtype)
               for name, dtype in COLUMN_DTYPES.items()})
        for name in ("srcs", *COLUMN_DTYPES):
            delattr(self, "_" + name)
        columns.check_invariants()
        return columns

    def _emit(self, inst: StaticInst) -> bool:
        """Write the next micro-op of ``inst``; returns whether it was a
        taken branch (what a segment guard decides on)."""
        seq = self._seq
        self._seq += 1
        kind = inst.kind
        self._pc[seq] = inst.pc

        if kind in _COMPUTE_KINDS:
            self._op[seq] = _OP_CODE_BY_NAME[inst.op_class._name_]
            self._compute_sources(seq)
            self._produce(seq)
            return False

        if kind is StaticKind.BRANCH:
            taken = inst.branch.outcome(self._iteration, self._rng)
            self._op[seq] = _OP_BC
            if self._recent and self._rng.random() < 0.5:
                self._srcs[SRC_SLOTS * seq] = self._rng.choice(self._recent)
            self._taken[seq] = taken
            self._target[seq] = inst.pc + 0x20
            return taken

        if kind is StaticKind.BRANCH_INDIRECT:
            self._op[seq] = _OP_BI
            self._target[seq] = inst.indirect.target(self._iteration,
                                                     self._rng)
            self._taken[seq] = True
            return True

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
            if data_src is not None:
                self._srcs[SRC_SLOTS * seq] = data_src
            # A fraction of stores compute their address from live dataflow
            # (pointer writes): their address resolves late, giving MDP
            # decisions real timing consequences.
            if inst.force_addr_chain and self._chain_head is not None:
                # A computed-address write: the address hangs off the live
                # dataflow chain, so it resolves moderately late — waiting
                # behind this store when it is not the actual producer
                # (Store Sets' serialise-behind-last-fetched policy) costs
                # real cycles.
                self._addr_src[seq] = self._chain_head
            elif (
                self._recent
                and self._rng.random() < self.profile.store_addr_chain_fraction
            ):
                self._addr_src[seq] = self._pick_source()
            self._op[seq] = _OP_STORE
            self._address[seq] = address
            self._size[seq] = size
            self._tracker.record_raw_store(seq, address, size)
            return False

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
            if kind is StaticKind.LOAD_PAIR:
                # Pair loads compute their address from live dataflow
                # (pointer chases, index arithmetic): with probability
                # chain_bias the address hangs off the current chain head,
                # so the load issues late — exactly when obtaining its value
                # early through SMB pays off (the perlbench2 effect of
                # Sec. VI-A).
                addr_src = self._pick_source()
                if addr_src is not None:
                    self._addr_src[seq] = addr_src
            elif self._recent and self._rng.random() < 0.3:
                self._addr_src[seq] = self._rng.choice(self._recent)
            self._op[seq] = _OP_LOAD
            self._address[seq] = address
            self._size[seq] = size
            if store is not None:
                self._store_distance[seq] = distance
                self._dep_store_seq[seq] = store.seq
                self._bypass[seq] = _BYPASS_CODE_BY_NAME[bypass._name_]
            # Whether the load's value feeds the critical dataflow chain is
            # the profile's sensitivity knob: lbm-style streaming kernels
            # rarely chain on loaded values (bypassing helps little) while
            # perlbench-style interpreters almost always do (Sec. VI-A).
            if self._rng.random() < self.profile.load_consumer_fraction:
                self._produce(seq)
            else:
                self._recent.append(seq)
            self._last_load = seq
            return False

        raise AssertionError(f"unhandled static kind {kind}")

    # -- main loop ----------------------------------------------------------------

    def _fill(self, end: int) -> None:
        """Emit micro-ops until sequence number ``end``."""
        emit = self._emit
        program = self.program
        while True:
            for segment in program.segments:
                if segment.guard is not None:
                    if self._seq >= end:
                        return
                    if not emit(segment.guard):
                        continue  # segment skipped this iteration
                for inst in segment.body:
                    if self._seq >= end:
                        return
                    emit(inst)
            if self._seq >= end:
                return
            emit(program.loop_branch)
            self._iteration += 1

    def generate(self, num_uops: int) -> Trace:
        """The first ``num_uops`` micro-ops, as a column-backed trace."""
        if not 0 < num_uops <= MAX_UOPS:
            raise ValueError(f"num_uops must be in 1..{MAX_UOPS} (the "
                             "sequence columns are int32)")
        if self._seq:
            raise RuntimeError("a TraceGenerator generates one trace")
        self._open(num_uops)
        self._fill(num_uops)
        return Trace(self._close())


def generate_trace(
    benchmark: str,
    num_uops: int,
    program_seed: int = 0,
    trace_seed: int = 1,
    store_window: int = 114,
    instr_window: int = 512,
) -> Trace:
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

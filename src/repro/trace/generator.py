"""Dynamic trace generation.

:class:`TraceGenerator` unrolls a static :class:`~repro.trace.program.Program`
into the dynamic micro-op stream, written field by field into preallocated
machine-typed buffers (:class:`array.array`, wrapped without a copy as the
numpy columns) and returned as a :class:`~repro.trace.columns.Trace` (its
:class:`~repro.trace.columns.TraceColumns`, with micro-op objects as a lazy
view).  The generator is the single source of ground truth: it evaluates
every branch and computes every effective address while it emits, and once
the micro-ops are written it stamps each load with its true store
distance and bypass class in one vectorised pass over the finished
columns (:func:`~repro.trace.dependence.fill_dependences`); no random draw
depends on a dependence.  Both the prediction-only harness and the timing
pipeline consume the same stream, so accuracy numbers and IPC numbers
always agree about which loads were dependent.  Every
:class:`~repro.trace.uop.MicroOp` invariant is then checked once,
vectorised, over the columns
(:meth:`~repro.trace.columns.TraceColumns.check_invariants`).

The emit loop (:meth:`TraceGenerator._fill`) walks a plan of the loop
body built once per trace (:func:`_plan`): each static instruction's
emission path, PC and op code are hoisted out of the loop, and the
dataflow state and the RNG's methods are locals.

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
from typing import Deque, Dict, List, Optional, Tuple

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
from .dependence import fill_dependences
from .profiles import get_profile
from .program import Program, StaticInst, StaticKind, build_program
from .uop import BypassClass

__all__ = ["TraceGenerator", "generate_trace"]

#: How many recent producers are eligible as random dataflow sources.
_RECENT_WINDOW = 24

#: :mod:`array` typecode of each column's buffer, of the same item size as
#: the column dtype, so the buffer *is* the column; ``srcs`` is ``"i"``.
_TYPECODES = {"pc": "q", "op": "b", "taken": "B", "target": "q",
              "address": "q", "size": "i", "addr_src": "i",
              "store_distance": "i", "dep_store_seq": "i", "bypass": "b"}
#: Field defaults the buffers start from (0 for the other columns).
_FILLS = {"addr_src": -1, "dep_store_seq": -1,
          "bypass": BYPASS_CODES[BypassClass.NONE]}

#: Emission path of each static kind (a :func:`_plan` entry's tag).
(_COMPUTE, _LOAD_PAIR, _LOAD_STREAM, _STORE_PAIR, _STORE_FILLER, _BRANCH,
 _INDIRECT) = range(7)
_TAGS = {
    StaticKind.ALU: _COMPUTE,
    StaticKind.MUL: _COMPUTE,
    StaticKind.DIV: _COMPUTE,
    StaticKind.FP: _COMPUTE,
    StaticKind.LOAD_PAIR: _LOAD_PAIR,
    StaticKind.LOAD_STREAM: _LOAD_STREAM,
    StaticKind.STORE_PAIR: _STORE_PAIR,
    StaticKind.STORE_FILLER: _STORE_FILLER,
    StaticKind.BRANCH: _BRANCH,
    StaticKind.BRANCH_INDIRECT: _INDIRECT,
}

#: A :func:`_plan` entry: ``(tag, pc, op code, instruction, arg)``.
PlanEntry = Tuple[int, int, int, StaticInst, int]


def _plan(program: Program) -> Tuple[List[PlanEntry], int]:
    """One loop iteration of ``program`` as a flat list of entries, with
    everything an emission needs that does not change between iterations
    hoisted out of the loop, and the number of stream-load cursors.

    Segments appear in order, each guard before its body, and the loop
    branch last.  ``arg`` is how many entries a guard skips when it is not
    taken (0 for the other branches) and a stream load's cursor number.
    """
    plan: List[PlanEntry] = []
    cursors: Dict[int, int] = {}

    def entry(inst: StaticInst, skip: int = 0) -> PlanEntry:
        tag = _TAGS[inst.kind]
        arg = skip
        if tag == _LOAD_STREAM:
            # Per-instruction cursors, numbered by identity: never ordered
            # or serialised, so the process-specific ids are safe.
            # repro-lint: allow(det-id) -- identity-only dict key
            arg = cursors.setdefault(id(inst), len(cursors))
        return tag, inst.pc, OP_CODES[inst.op_class], inst, arg

    for segment in program.segments:
        if segment.guard is not None:
            plan.append(entry(segment.guard, len(segment.body)))
        plan.extend(map(entry, segment.body))
    plan.append(entry(program.loop_branch))
    return plan, len(cursors)


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
        In-flight bounds of the ground-truth dependences
        (:func:`~repro.trace.dependence.fill_dependences`); defaults match
        the Golden Cove store buffer (114) and ROB (512) of Table I.
    """

    def __init__(
        self,
        program: Program,
        seed: int = 1,
        store_window: int = 114,
        instr_window: int = 512,
    ):
        if store_window <= 0:
            raise ValueError("store window must be positive")
        if instr_window <= 0:
            raise ValueError("instruction window must be positive")
        self.program = program
        self.profile = program.profile
        self.store_window = store_window
        self.instr_window = instr_window
        self._rng = random.Random(seed ^ 0x5EED)
        self._used = False

    # -- column buffers ---------------------------------------------------------

    def _open(self, n: int) -> None:
        """A typed buffer ``self._<column>`` per column for ``n`` micro-ops,
        pre-filled with the field defaults; :meth:`_fill` writes only the
        fields an op class uses.  ``_srcs`` holds :data:`SRC_SLOTS`
        ``-1``-padded slots per op."""
        for name, code in _TYPECODES.items():
            setattr(self, "_" + name, array(code, [_FILLS.get(name, 0)]) * n)
        self._srcs = array("i", [-1]) * (SRC_SLOTS * n)

    def _close(self) -> TraceColumns:
        """The filled buffers as checked columns, wrapped without a copy,
        with every load's ground-truth dependence filled in; the
        generator's own references are dropped."""
        columns = TraceColumns.from_arrays(
            np.frombuffer(self._srcs, dtype=np.int32).reshape(-1, SRC_SLOTS),
            **{name: np.frombuffer(getattr(self, "_" + name), dtype=dtype)
               for name, dtype in COLUMN_DTYPES.items()})
        for name in ("srcs", *COLUMN_DTYPES):
            delattr(self, "_" + name)
        fill_dependences(columns.op, columns.address, columns.size,
                         columns.store_distance, columns.dep_store_seq,
                         columns.bypass, self.store_window, self.instr_window)
        columns.check_invariants()
        return columns

    # -- main loop ----------------------------------------------------------------

    def _fill(self, end: int) -> None:
        """Write micro-ops ``0`` to ``end - 1``: the program's loop body,
        iteration after iteration, in :func:`_plan` order.

        The dataflow state (the recent producers, the chain head, the last
        load), the RNG's methods and the column buffers are locals.  Every
        op draws from the RNG in a fixed order per kind, so a trace is a
        pure function of the program and the seed.
        """
        plan, n_streams = _plan(self.program)
        profile = self.profile
        chain_bias = profile.chain_bias
        consumer_fraction = profile.load_consumer_fraction
        addr_chain_fraction = profile.store_addr_chain_fraction
        footprint = profile.footprint
        stream_slots = max(footprint // 8, 1)
        rng = self._rng
        rand = rng.random
        choice = rng.choice
        randrange = rng.randrange
        pc_col = self._pc
        op_col = self._op
        taken_col = self._taken
        target_col = self._target
        address_col = self._address
        size_col = self._size
        addr_src_col = self._addr_src
        srcs = self._srcs
        # The most recent producers, eligible as random dataflow sources.
        recent: Deque[int] = deque(maxlen=_RECENT_WINDOW)
        add_recent = recent.append
        chain_head: Optional[int] = None
        last_load: Optional[int] = None
        cursors = [0] * n_streams

        def pick_source() -> int:
            """One dataflow source (``recent`` is not empty) according to
            the chain bias."""
            if chain_head is not None and rand() < chain_bias:
                return chain_head
            return choice(recent)

        last = len(plan) - 1
        i = 0
        iteration = 0
        for seq in range(end):
            tag, pc, code, inst, arg = plan[i]
            pc_col[seq] = pc
            op_col[seq] = code

            if tag == _COMPUTE:
                # Up to three distinct sources: a sampled one, a second at
                # random, and the most recent load, which models
                # load-latency sensitivity.
                slot = SRC_SLOTS * seq
                first = second = None
                if recent:
                    if chain_head is not None and rand() < chain_bias:
                        first = chain_head
                    else:
                        first = choice(recent)
                    srcs[slot] = first
                    slot += 1
                    if rand() < 0.5:
                        second = choice(recent)
                        if second == first:
                            second = None
                        else:
                            srcs[slot] = second
                            slot += 1
                if (
                    last_load is not None
                    and last_load != first and last_load != second
                    and rand() < consumer_fraction
                ):
                    srcs[slot] = last_load
                add_recent(seq)
                chain_head = seq

            elif tag == _LOAD_PAIR or tag == _LOAD_STREAM:
                if tag == _LOAD_PAIR:
                    pair = inst.pair
                    address_col[seq] = pair.load_address(iteration)
                    size_col[seq] = pair.load_size
                    # Pair loads compute their address from live dataflow
                    # (pointer chases, index arithmetic): with probability
                    # chain_bias the address hangs off the current chain
                    # head, so the load issues late -- exactly when
                    # obtaining its value early through SMB pays off (the
                    # perlbench2 effect of Sec. VI-A).
                    if recent:
                        addr_src_col[seq] = pick_source()
                else:
                    cursor = cursors[arg]
                    if inst.stream_random:
                        offset = randrange(stream_slots) * 8
                    else:
                        offset = (cursor * inst.stream_stride) % footprint
                    cursors[arg] = cursor + 1
                    address_col[seq] = inst.stream_start + offset
                    size_col[seq] = 8
                    if recent and rand() < 0.3:
                        addr_src_col[seq] = choice(recent)
                # Whether the load's value feeds the critical dataflow
                # chain is the profile's sensitivity knob: lbm-style
                # streaming kernels rarely chain on loaded values
                # (bypassing helps little) while perlbench-style
                # interpreters almost always do (Sec. VI-A).
                add_recent(seq)
                if rand() < consumer_fraction:
                    chain_head = seq
                last_load = seq

            elif tag == _STORE_PAIR or tag == _STORE_FILLER:
                if tag == _STORE_PAIR:
                    pair = inst.pair
                    address_col[seq] = pair.store_address(
                        iteration, inst.writer_stride)
                    size_col[seq] = pair.store_size
                    # Pair stores write values computed earlier (a spilled
                    # register, a field produced upstream): their data is
                    # ready well before younger loads could complete,
                    # which is what makes bypassing them profitable.
                    if recent:
                        srcs[SRC_SLOTS * seq] = recent[0]
                else:
                    address_col[seq] = inst.filler_address
                    size_col[seq] = 8
                    if recent:
                        srcs[SRC_SLOTS * seq] = pick_source()
                # A fraction of stores compute their address from live
                # dataflow (pointer writes): their address resolves late,
                # giving MDP decisions real timing consequences.
                if inst.force_addr_chain and chain_head is not None:
                    # A computed-address write: the address hangs off the
                    # live dataflow chain, so it resolves moderately late
                    # -- waiting behind this store when it is not the
                    # actual producer (Store Sets' serialise-behind-last-
                    # fetched policy) costs real cycles.
                    addr_src_col[seq] = chain_head
                elif recent and rand() < addr_chain_fraction:
                    addr_src_col[seq] = pick_source()

            elif tag == _BRANCH:
                taken = inst.branch.outcome(iteration, rng)
                if recent and rand() < 0.5:
                    srcs[SRC_SLOTS * seq] = choice(recent)
                taken_col[seq] = taken
                target_col[seq] = pc + 0x20
                if not taken:
                    i += arg  # a guard skips its segment's body

            else:  # _INDIRECT
                target_col[seq] = inst.indirect.target(iteration, rng)
                taken_col[seq] = True

            if i >= last:
                i = 0
                iteration += 1
            else:
                i += 1

    def generate(self, num_uops: int) -> Trace:
        """The first ``num_uops`` micro-ops, as a column-backed trace."""
        if not 0 < num_uops <= MAX_UOPS:
            raise ValueError(f"num_uops must be in 1..{MAX_UOPS} (the "
                             "sequence columns are int32)")
        if self._used:
            raise RuntimeError("a TraceGenerator generates one trace")
        self._used = True
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

"""Batched timing engine: two-phase replay of the scalar pipeline.

:class:`BatchedPipeline` produces **bit-identical** results to
:class:`~repro.core.pipeline.Pipeline` — same :class:`PipelineStats`, same
:class:`CycleStack`, same telemetry and post-run predictor state — enforced
by the golden equivalence tier in ``tests/equivalence/``.  It exploits a
structural property of the scalar model:

* Predictors consume only the *architectural* event stream (branch
  outcomes, store dispatches, load predict/train), which is purely
  trace-order driven; no timing result feeds back into any predictor.
* The timing model consumes predictions but never mutates them.

So the run splits into **Phase A** — replay the predictor-visible stream
through the predictors' own hooks, collecting per-load decisions as plain
ints — and **Phase B** — a monolithic timing loop over precomputed
:class:`~repro.trace.columns.TraceColumns`, with the scalar code's
dict/deque scoreboards replaced by plain per-seq and per-kind lists.

Phase A calls the same predictor code as the scalar engine: each load goes
through :meth:`~repro.predictors.base.MDPredictor.predict_train`, which
composes the predictor's ``lookup``/``update`` halves exactly as the scalar
``predict``/``train`` do, and branches go through the branch predictor's
``predict_and_train`` / ``observe_indirect``.  The only difference is where
history-dependent keys come from: before the replay, ``prime`` hands every
predictor the run's whole architectural branch stream so it can compute
all keys at once with numpy (:mod:`repro.common.foldplan`), and ``finish``
writes the final history registers back afterwards.

Phase A is :class:`PredictorReplay`, the one loop outside the scalar
engine that drives the predictors; the prediction-only replay
(:func:`~repro.experiments.runner.run_prediction_only`) runs it too,
without a branch predictor and Phase B.  The scalar
:class:`~repro.core.lsu.StoreWindow` holds the last ``capacity`` stores,
so Phase A answers its membership questions from store ranks computed
with numpy over the columns: a store is in a load's window when at most
``capacity`` stores separate them.  The ``branches_between`` /
``store_pc`` training hints and the resolution of a predicted store
distance or sequence number therefore match the scalar run exactly, and
the replay loop visits only the micro-ops some hook consumes.  Phase B
replicates the scalar constraint chain —
fetch width, redirect barriers, window releases, port pools with the same
strict-< scan, in-order commit — and calls the memory hierarchy with the
exact argument stream of the scalar run, so cache/MSHR state stays
bit-identical too.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import List, Optional, Sequence

import numpy as np

from ..analysis.accuracy import OUTCOME_BY_CODE, OUTCOME_CODES, OutcomeKind
from ..branch.tage import TAGEBranchPredictor
from ..common.foldplan import prime_inputs
from ..memory.hierarchy import MemoryHierarchy
from ..obs.cycles import CycleStack
from ..predictors.base import PRED_KIND_BY_CODE, MDPredictor
from ..trace.columns import (OP_BY_CODE, OP_CODES, SRC_SLOTS, Trace,
                             TraceColumns)
from ..trace.uop import MicroOp, OpClass
from .config import GOLDEN_COVE, CoreConfig
from .pipeline import _CONSUMER_OPS, _WINDOW_CATEGORIES
from .stats import PipelineStats

__all__ = ["BatchedPipeline", "PredictorReplay"]

_OP_ALU = OP_CODES[OpClass.ALU]
_OP_MUL = OP_CODES[OpClass.MUL]
_OP_DIV = OP_CODES[OpClass.DIV]
_OP_FP = OP_CODES[OpClass.FP]
_OP_LOAD = OP_CODES[OpClass.LOAD]
_OP_STORE = OP_CODES[OpClass.STORE]
_OP_BC = OP_CODES[OpClass.BRANCH_COND]
_OP_BI = OP_CODES[OpClass.BRANCH_INDIRECT]

#: Consumer-wait eligibility by op code (mirrors pipeline._CONSUMER_OPS).
_IS_CONSUMER = tuple(op in _CONSUMER_OPS for op in OP_BY_CODE)

_OC_CORRECT_SMB = OUTCOME_CODES[OutcomeKind.CORRECT_SMB]


def _overrides(predictor: MDPredictor, hook: str) -> bool:
    """Whether ``predictor``'s ``hook`` is anything but the base class's
    no-op (a subclass method, or a callable set on the instance)."""
    return (getattr(getattr(predictor, hook), "__func__", None)
            is not getattr(MDPredictor, hook))


class PredictorReplay:
    """The predictor-visible event stream of one run, in trace order.

    Outside the scalar reference :class:`~repro.core.pipeline.Pipeline`
    this is the one loop that drives the predictors' hooks: branch
    outcomes, store dispatches and each load's fused ``predict_train``
    with its ``branches_between`` / ``store_pc`` training hints.  The
    batched engine's Phase A runs it with a branch predictor and collects
    Phase B's per-event decisions;
    :func:`~repro.experiments.runner.run_prediction_only` runs it without
    one and keeps only the outcome tallies.

    Everything that depends only on the trace is computed with numpy
    before the loop, and the loop visits only the micro-ops some hook
    consumes: every load; the stores when the predictor overrides
    ``on_store``; the branches when a branch predictor runs, or when the
    predictor's history hooks are live: it overrides one and
    :meth:`prime` did not take its history over.  A hook is called
    exactly when it is not a no-op.
    """

    def __init__(self, predictor: MDPredictor, branch_predictor=None):
        self.predictor = predictor
        self.branch_predictor = branch_predictor

    def prime(self, inputs) -> bool:
        """Hand the predictors the run's whole branch stream up front.

        ``inputs`` is :func:`~repro.common.foldplan.prime_inputs`'s
        result: history-keyed predictors vectorise every fold register and
        table key from it instead of updating them branch by branch.
        Returns whether the MD predictor took its history over, making its
        branch hooks no-ops until ``finish``.
        """
        took_over = self.predictor.prime(*inputs)
        if self.branch_predictor is not None:
            self.branch_predictor.prime(inputs[0])
        return bool(took_over)

    def replay(self, cols: TraceColumns, measure_from: int,
               window: int, inputs, recorder=None):
        """Replay the trace ``cols``; micro-ops from ``measure_from`` on
        are measured.

        ``window`` is the store-window capacity (the scalar
        :class:`~repro.core.lsu.StoreWindow`'s): a load's training hints
        name its store only while that store is among the last ``window``
        stores, and so do its predicted store and a store's ordering
        constraint.  ``inputs`` primes the predictors (None: no priming),
        and an F1 ``recorder`` ticks after every load.

        Returns ``(outcome_counts, kind_counts, warm, decisions)``: the
        measured outcome / prediction-kind tallies by int code (see
        :meth:`~repro.analysis.accuracy.AccuracyStats.record_codes`),
        the branch predictor's ``(mispredictions,
        indirect_mispredictions)`` at the warmup boundary, and Phase B's
        decisions.  Without a branch predictor the last two are None.
        """
        if cols.first_seq:
            raise ValueError(
                f"trace starts at sequence number {cols.first_seq}: an "
                "offset slice runs only once stitched into a whole trace")
        predictor = self.predictor
        branch = self.branch_predictor
        timing = branch is not None
        took_over = inputs is not None and self.prime(inputs)
        visit_stores = _overrides(predictor, "on_store")
        history = not took_over and (_overrides(predictor, "on_branch")
                                     or _overrides(predictor, "on_indirect"))
        visit_branches = timing or history

        # Trace-only facts.  Store ``r`` (0-based, in trace order) is the
        # ``r + 1``-th; ``stores_upto[i]`` / ``branches_upto[i]`` count
        # the stores / branches among micro-ops 0..i.
        op = cols.op
        is_store = op == _OP_STORE
        is_branch = (op == _OP_BC) | (op == _OP_BI)
        stores_upto = np.cumsum(is_store, dtype=np.int32)
        branches_upto = np.cumsum(is_branch, dtype=np.int32)
        visit = op == _OP_LOAD
        loads = np.flatnonzero(visit)
        stores = np.flatnonzero(is_store)
        # A load's hints name its dependence while the store is among the
        # last ``window`` stores before the load.
        dep = cols.dep_store_seq[loads]
        has_dep = dep >= 0
        dep_at = np.where(has_dep, dep, loads)
        ld_rank = stores_upto[loads]
        present = has_dep & (ld_rank - stores_upto[dep_at] < window)
        ld_bb = np.where(present, branches_upto[loads] - branches_upto[dep_at],
                         0).tolist()
        ld_spc = np.where(present, cols.pc[dep_at], None).tolist()
        ld_dep = np.where(has_dep, dep, None).tolist()
        ld_seq = loads.tolist()
        ld_pc = cols.pc[loads].tolist()
        ld_dist = cols.store_distance[loads].tolist()
        ld_bypass = cols.bypass[loads].tolist()
        st_seq = stores.tolist()
        if visit_stores:
            visit |= is_store
            st_pc = cols.pc[stores].tolist()
        if visit_branches:
            visit |= is_branch
            branches = np.flatnonzero(is_branch)
            br_pc = cols.pc[branches].tolist()
            br_taken = cols.taken[branches].tolist()
            br_target = cols.target[branches].tolist()
        visit = np.flatnonzero(visit)
        split = int(np.searchsorted(visit, min(measure_from, cols.n)))
        kinds = op[visit].tolist()

        def in_window(seq: Optional[int], rank: int) -> bool:
            """Whether ``seq`` is one of the last ``window`` stores before
            store rank ``rank``."""
            if seq is None:
                return False
            lo = rank - window
            r = bisect_left(st_seq, seq, lo if lo > 0 else 0, rank)
            return r < rank and st_seq[r] == seq

        # Phase B's decisions: per load, per store, per branch.
        ld_kind: List[int] = []
        ld_target: List[int] = []          # resolved store seq, -1 = none
        ld_conservative: List[bool] = []
        ld_smb_ok: List[bool] = []         # outcome was CORRECT_SMB
        st_ordering: List[int] = []        # Store Sets LFST constraint seq
        br_correct: List[bool] = []
        if timing:
            ld_rank = ld_rank.tolist()
            if not visit_stores:
                st_ordering = [-1] * len(st_seq)

        # Outcome/kind counters by int code (enum-keyed dicts filled by
        # record_codes -- list indexing beats enum hashing on the hot path).
        oc_counts = [0] * len(OUTCOME_BY_CODE)
        kc_counts = [0] * len(PRED_KIND_BY_CODE)
        oc_smb = _OC_CORRECT_SMB
        warm = None

        op_load = _OP_LOAD
        op_store = _OP_STORE
        op_bc = _OP_BC
        p_on_branch = predictor.on_branch
        p_on_indirect = predictor.on_indirect
        p_on_store = predictor.on_store
        p_predict_train = predictor.predict_train
        if timing:
            bstats = branch.stats
            b_predict_and_train = branch.predict_and_train
            b_observe_indirect = branch.observe_indirect

        li = si = bi = 0
        for measured, part in ((False, kinds[:split]), (True, kinds[split:])):
            # Branch stats accumulate from the first micro-op; snapshot
            # them at the warmup boundary, as the scalar run() does.
            if measured and timing:
                warm = (bstats.mispredictions, bstats.indirect_mispredictions)
            for code in part:
                if code == op_load:
                    kind, p_seq, p_dist, conservative, ok_code = (
                        p_predict_train(ld_seq[li], ld_pc[li], ld_bb[li],
                                        ld_spc[li], ld_dist[li], ld_dep[li],
                                        ld_bypass[li]))
                    if measured:
                        oc_counts[ok_code] += 1
                        kc_counts[kind] += 1
                    if timing:
                        tgt = -1
                        if kind:
                            rank = ld_rank[li]
                            if p_seq is not None:
                                if in_window(p_seq, rank):
                                    tgt = p_seq
                            elif 0 < p_dist <= rank and p_dist <= window:
                                tgt = st_seq[rank - p_dist]
                        ld_kind.append(kind)
                        ld_target.append(tgt)
                        ld_conservative.append(conservative)
                        ld_smb_ok.append(ok_code == oc_smb)
                    if recorder is not None:
                        recorder.tick()
                    li += 1
                elif code == op_store:
                    oseq = p_on_store(st_seq[si], st_pc[si])
                    if timing:
                        st_ordering.append(oseq if in_window(oseq, si)
                                           else -1)
                    si += 1
                elif code == op_bc:
                    if timing:
                        br_correct.append(
                            b_predict_and_train(br_pc[bi], br_taken[bi]))
                    if history:
                        p_on_branch(br_pc[bi], br_taken[bi])
                    bi += 1
                else:
                    if timing:
                        br_correct.append(
                            b_observe_indirect(br_pc[bi], br_target[bi]))
                    if history:
                        p_on_indirect(br_pc[bi], br_target[bi])
                    bi += 1

        predictor.finish()
        if not timing:
            return oc_counts, kc_counts, None, None
        branch.finish()
        return oc_counts, kc_counts, warm, (
            ld_kind, ld_target, ld_conservative, ld_smb_ok, present.tolist(),
            st_ordering, br_correct)


class BatchedPipeline(PredictorReplay):
    """One core, one trace, one predictor — batched engine.

    Drop-in for :class:`~repro.core.pipeline.Pipeline`: same constructor,
    same :meth:`run` contract (including the single-use guard and the
    warmup ``measure_from`` semantics), same :attr:`stats`,
    :attr:`cycle_stack` and :meth:`timeline` surface.
    """

    def __init__(
        self,
        predictor: MDPredictor,
        config: CoreConfig = GOLDEN_COVE,
        branch_predictor=None,
        hierarchy: Optional[MemoryHierarchy] = None,
        record_timeline: bool = False,
        accounting: bool = False,
    ):
        super().__init__(predictor,
                         branch_predictor or TAGEBranchPredictor())
        self.config = config
        self.hierarchy = hierarchy or MemoryHierarchy(config.memory)
        self.stats = PipelineStats()
        self._acct: Optional[CycleStack] = CycleStack() if accounting else None
        self._record_timeline = record_timeline
        # Per-uop timing exported at end of run (timeline, re-run guard).
        self._commit_times: List[int] = []
        self._issue_times: List[int] = []
        self._fetch_times: List[int] = []
        self._dispatch_times: List[int] = []
        self._complete_times: List[int] = []
        self._value_ready: List[int] = []

    # ------------------------------------------------------------------ run

    def run(self, trace: Trace, measure_from: int = 0) -> PipelineStats:
        """Simulate the trace from its columns; returns (and stores) the
        statistics."""
        if self._commit_times:
            raise RuntimeError(
                "Pipeline instances are single-use: construct a new "
                "Pipeline per run (predictor and cache state would "
                "otherwise leak between traces)"
            )
        if not 0 <= measure_from <= len(trace):
            raise ValueError(
                f"measure_from {measure_from} outside trace of {len(trace)}"
            )
        cols = trace.columns
        phase_a = self._phase_a(cols, measure_from)
        self._phase_b(cols, measure_from, phase_a)
        return self.stats

    # -------------------------------------------------- phase A: predictors

    def _phase_a(self, cols: TraceColumns, measure_from: int):
        """Replay the predictor-visible event stream in trace order.

        :meth:`~PredictorReplay.replay` with the scalar
        :class:`~repro.core.lsu.StoreWindow`'s capacity, primed from the
        columns.  Writes the measured accuracy, branch and op counts and
        returns the per-event decision lists Phase B consumes.
        """
        cfg = self.config
        stats = self.stats
        bstats = self.branch_predictor.stats
        cap = max(cfg.sb_size * 2, 256)
        oc_counts, kc_counts, warm, decisions = self.replay(
            cols, measure_from, cap,
            prime_inputs(cols.op, cols.pc, cols.taken, cols.target))

        stats.accuracy.record_codes(oc_counts, kc_counts)
        stats.branch_mispredictions = bstats.mispredictions - warm[0]
        stats.indirect_mispredictions = (
            bstats.indirect_mispredictions - warm[1]
        )

        # Measured-region op counts (the scalar per-step increments).
        mop = cols.op[measure_from:]
        stats.loads = int(np.count_nonzero(mop == _OP_LOAD))
        stats.stores = int(np.count_nonzero(mop == _OP_STORE))
        stats.branches = int(np.count_nonzero(mop == _OP_BC)) + int(
            np.count_nonzero(mop == _OP_BI)
        )
        return decisions

    # ------------------------------------------------------ phase B: timing

    def _phase_b(self, cols: TraceColumns, measure_from: int,
                 phase_a) -> None:
        """Monolithic timing loop — the scalar constraint chain, inlined."""
        (ld_kind, ld_target, ld_conservative, ld_smb_ok, ld_present,
         st_ordering, br_correct) = phase_a
        cfg = self.config
        n = cols.n
        lists = cols.lists(("op", "pc", "address", "addr_src",
                            "dep_store_seq"))
        op_l = lists["op"]
        pc_l = lists["pc"]
        addr_l = lists["address"]
        asrc_l = lists["addr_src"]
        dep_l = lists["dep_store_seq"]
        # Source slots as column lists, read unrolled below; columns past
        # the third exist only for hand-built traces with wider micro-ops.
        src_cols = cols.srcs.T.tolist()
        src0_l, src1_l, src2_l = src_cols[:SRC_SLOTS]
        wide_l = src_cols[SRC_SLOTS:]

        fetch_width = cfg.fetch_width
        frontend = cfg.frontend_latency
        rob_size = cfg.rob_size
        iq_size = cfg.iq_size
        commit_width = cfg.commit_width
        alu_lat = cfg.alu_latency
        mul_lat = cfg.mul_latency
        div_lat = cfg.div_latency
        fp_lat = cfg.fp_latency
        br_lat = cfg.branch_latency
        agu_lat = cfg.agu_latency
        sb_drain = cfg.sb_drain_latency
        enforce_drain = cfg.enforce_sb_drain
        fwd_lat = cfg.forward_latency
        squash_ovh = cfg.squash_overhead

        # Port pools: same strict-< earliest-free scan as PortPool.issue.
        # The ALU pool's scan is inlined at its use sites (every ALU, MUL,
        # DIV and branch op goes through it); the rarer pools keep the
        # closure.
        load_free = [0] * cfg.load_ports
        store_free = [0] * cfg.store_ports
        alu_free = [0] * cfg.alu_ports
        fp_free = [0] * cfg.fp_ports
        n_alu_ports = cfg.alu_ports

        def pool_issue(free: List[int], ready: int, occupancy: int = 1) -> int:
            best = 0
            best_free = free[0]
            for i in range(1, len(free)):
                if free[i] < best_free:
                    best = i
                    best_free = free[i]
            cycle = ready if ready > best_free else best_free
            free[best] = cycle + occupancy
            return cycle

        value_ready = [0] * n
        issue_times = [0] * n
        commit_times = [0] * n
        # One False past the end: an empty source slot (-1) reads it.
        produced = (cols.op == _OP_LOAD).tolist()
        produced.append(False)

        recording = self._record_timeline
        if recording:
            fetch_times = [0] * n
            dispatch_times = [0] * n
            complete_times = [0] * n

        # Store-timing columns as plain per-seq lists (native-int reads).
        # The LQ/SB window-release reads ("when did the load/store
        # `capacity` slots ago commit/drain?") index the per-kind event
        # lists directly.
        lq_size = cfg.lq_size
        sb_size = cfg.sb_size
        st_addr = [-1] * n
        st_data = [-1] * n
        st_drain = [-1] * n
        ld_commits: List[int] = []
        st_drains: List[int] = []

        timed_load = self.hierarchy.timed_load
        store_probe = self.hierarchy.store_probe

        acct = self._acct
        accounting = acct is not None
        if accounting:
            acct_cycles = acct.cycles
        prev_commit = 0
        barrier_bound = False
        acct_exec = "execute"
        port_from = 0
        dep_from = 0
        rob_point = iq_point = lq_point = sb_point = 0

        barrier = 0
        fetch_cycle = 0
        fetch_slots = 0
        commit_cycle = 0
        commit_slots = 0

        n_stall = n_fwd = n_byp = n_squash = n_cons = n_wait = 0
        li = si = bi = 0
        is_consumer = _IS_CONSUMER
        op_alu = _OP_ALU
        op_load = _OP_LOAD
        op_store = _OP_STORE
        op_bc = _OP_BC
        op_fp = _OP_FP
        op_mul = _OP_MUL
        op_bi = _OP_BI
        op_div = _OP_DIV

        for seq in range(n):
            code = op_l[seq]
            measuring = seq >= measure_from

            # -- fetch (width + redirect barrier) --
            if barrier > fetch_cycle:
                fetch_cycle = barrier
                fetch_slots = 0
            fetch = fetch_cycle
            fetch_slots += 1
            if fetch_slots >= fetch_width:
                fetch_cycle += 1
                fetch_slots = 0

            # -- dispatch (window releases) --
            is_load = code == op_load
            is_store = code == op_store
            rob_point = iq_point = lq_point = sb_point = 0
            rv = seq - rob_size
            if rv >= 0:
                rob_point = commit_times[rv]
            iv = seq - iq_size
            if iv >= 0:
                iq_point = issue_times[iv]
            if is_load:
                if li >= lq_size:
                    lq_point = ld_commits[li - lq_size]
            elif is_store:
                if si >= sb_size:
                    sb_point = st_drains[si - sb_size]
            dispatch = fetch + frontend
            if rob_point > dispatch:
                dispatch = rob_point
            if iq_point > dispatch:
                dispatch = iq_point
            if lq_point > dispatch:
                dispatch = lq_point
            if sb_point > dispatch:
                dispatch = sb_point

            # -- source readiness (left-aligned slots, -1 = empty) --
            ready = 0
            s0 = src0_l[seq]
            if s0 >= 0:
                ready = value_ready[s0]
                src = src1_l[seq]
                if src >= 0:
                    t = value_ready[src]
                    if t > ready:
                        ready = t
                    src = src2_l[seq]
                    if src >= 0:
                        t = value_ready[src]
                        if t > ready:
                            ready = t
                        for col in wide_l:
                            src = col[seq]
                            if src < 0:
                                break
                            t = value_ready[src]
                            if t > ready:
                                ready = t
            d1 = dispatch + 1
            earliest = d1 if d1 > ready else ready
            if accounting:
                barrier_bound = barrier > 0 and fetch == barrier
                acct_exec = "execute"
                port_from = earliest
                dep_from = earliest

            # Sec. VI-A consumer-wait metric.
            if measuring and s0 >= 0 and is_consumer[code] and (
                    produced[s0] or produced[src1_l[seq]]
                    or produced[src2_l[seq]]
                    or wide_l and any(produced[col[seq]] for col in wide_l)):
                n_cons += 1
                wait = ready - d1
                if wait > 0:
                    n_wait += wait

            if code == op_alu:
                best = 0
                best_free = alu_free[0]
                for i in range(1, n_alu_ports):
                    if alu_free[i] < best_free:
                        best = i
                        best_free = alu_free[i]
                issue = earliest if earliest > best_free else best_free
                alu_free[best] = issue + 1
                complete = issue + alu_lat
                value = complete
            elif is_load:
                kind = ld_kind[li]
                tgt = ld_target[li]
                a = d1
                asrc = asrc_l[seq]
                if asrc >= 0:
                    t = value_ready[asrc]
                    if t > a:
                        a = t
                if ready > a:
                    a = ready
                if accounting:
                    dep_from = a
                wait_until = a
                if kind and tgt >= 0:
                    hold = st_addr[tgt]
                    if ld_conservative[li]:
                        hold += 1
                    if hold > wait_until:
                        if measuring:
                            n_stall += 1
                        wait_until = hold
                issue = pool_issue(load_free, wait_until)
                if accounting:
                    port_from = wait_until
                dep = dep_l[seq]
                squash_at = 0  # 0 = no squash (cycle 0 is never a squash)
                if dep >= 0 and ld_present[li]:
                    dep_addr = st_addr[dep]
                    if issue < dep_addr:
                        squash_at = dep_addr + 1
                        fr = st_data[dep]
                        if dep_addr > fr:
                            fr = dep_addr
                        t = squash_at + squash_ovh
                        if fr > t:
                            t = fr
                        complete = t + fwd_lat
                    elif enforce_drain and issue > st_drain[dep]:
                        complete = timed_load(
                            pc_l[seq], addr_l[seq], issue + agu_lat - 1
                        )
                    else:
                        if measuring:
                            n_fwd += 1
                        fr = st_data[dep]
                        if dep_addr > fr:
                            fr = dep_addr
                        t = issue if issue > fr else fr
                        complete = t + fwd_lat
                else:
                    complete = timed_load(
                        pc_l[seq], addr_l[seq], issue + agu_lat - 1
                    )
                value = complete
                if kind == 2 and tgt >= 0:
                    if ld_smb_ok[li]:
                        if measuring:
                            n_byp += 1
                        bv = st_data[tgt] + 1
                        if d1 > bv:
                            bv = d1
                        if bv < value:
                            value = bv
                    else:
                        ta = st_addr[tgt]
                        addr_check = (issue if issue > ta else ta) + 1
                        i1 = issue + 1
                        m = addr_check if addr_check > i1 else i1
                        verify = complete if complete < m else m
                        if verify > squash_at:
                            squash_at = verify
                        t = verify + squash_ovh
                        if t > complete:
                            complete = t
                        value = complete
                if squash_at:
                    if measuring:
                        n_squash += 1
                    t = squash_at + squash_ovh
                    if t > barrier:
                        barrier = t
                if accounting:
                    acct_exec = "squash" if squash_at else "memory"
                li += 1
            elif is_store:
                a = d1
                asrc = asrc_l[seq]
                if asrc >= 0:
                    t = value_ready[asrc]
                    if t > a:
                        a = t
                if accounting:
                    dep_from = a
                oseq = st_ordering[si]
                if oseq >= 0:
                    t = st_addr[oseq] + 1
                    if t > a:
                        a = t
                issue = pool_issue(store_free, a)
                addr_resolve = issue + agu_lat
                data_avail = ready if ready > d1 else d1
                complete = (addr_resolve if addr_resolve > data_avail
                            else data_avail)
                if accounting:
                    port_from = a
                store_probe(addr_l[seq])
                st_addr[seq] = addr_resolve
                st_data[seq] = data_avail
                value = complete
                si += 1
            elif code == op_bc or code == op_bi:
                best = 0
                best_free = alu_free[0]
                for i in range(1, n_alu_ports):
                    if alu_free[i] < best_free:
                        best = i
                        best_free = alu_free[i]
                issue = earliest if earliest > best_free else best_free
                alu_free[best] = issue + 1
                complete = issue + br_lat
                value = complete
                if not br_correct[bi]:
                    t = complete + 1
                    if t > barrier:
                        barrier = t
                bi += 1
            elif code == op_fp:
                issue = pool_issue(fp_free, earliest)
                complete = issue + fp_lat
                value = complete
            elif code == op_mul:
                issue = pool_issue(alu_free, earliest)
                complete = issue + mul_lat
                value = complete
            elif code == op_div:
                issue = pool_issue(alu_free, earliest, div_lat)
                complete = issue + div_lat
                value = complete
            else:  # NOP
                issue = earliest
                complete = issue
                value = complete

            # -- commit (in order, width-limited) --
            c = complete + 1
            if c < commit_cycle:
                c = commit_cycle
            if c > commit_cycle:
                commit_cycle = c
                commit_slots = 0
            commit_slots += 1
            if commit_slots >= commit_width:
                commit_cycle += 1
                commit_slots = 0

            issue_times[seq] = issue
            commit_times[seq] = c
            value_ready[seq] = value
            if recording:
                fetch_times[seq] = fetch
                dispatch_times[seq] = dispatch
                complete_times[seq] = complete
            if is_load:
                ld_commits.append(c)
            elif is_store:
                drain = c + sb_drain
                st_drains.append(drain)
                st_drain[seq] = drain

            # -- cycle accounting (scalar _account, inlined) --
            if accounting:
                if not measuring:
                    prev_commit = c
                else:
                    lo = prev_commit
                    prev_commit = c
                    hi = c
                    if hi > lo:
                        cuts = [
                            (complete, "commit"),
                            (issue, acct_exec),
                            (port_from, "ports"),
                            (dep_from, "dependence"),
                            (d1, "src_wait"),
                        ]
                        frontier = fetch + frontend
                        if dispatch > frontier:
                            points = (rob_point, iq_point, lq_point, sb_point)
                            cuts.append((
                                frontier,
                                _WINDOW_CATEGORIES[points.index(max(points))],
                            ))
                        front = "redirect" if barrier_bound else "frontend"
                        cuts.append((fetch, front))
                        for point, cat in cuts:
                            if point < lo:
                                point = lo
                            if point < hi:
                                acct_cycles[cat] += hi - point
                                hi = point
                        if hi > lo:
                            acct_cycles[front] += hi - lo

        # -- end of run --
        stats = self.stats
        measured = n - measure_from
        stats.instructions = measured
        start_cycle = commit_times[measure_from - 1] if measure_from > 0 else 0
        stats.cycles = max(commit_cycle - start_cycle, 1)
        stats.accuracy.instructions = measured
        stats.memory_squashes = n_squash
        stats.loads_stalled_by_prediction = n_stall
        stats.loads_bypassed = n_byp
        stats.loads_forwarded = n_fwd
        stats.load_consumers = n_cons
        stats.load_consumer_wait_cycles = n_wait
        if acct is not None:
            tail = stats.cycles - acct.total
            if tail > 0:
                acct.add("commit", tail)

        self._issue_times = issue_times
        self._commit_times = commit_times
        if recording:
            self._fetch_times = fetch_times
            self._dispatch_times = dispatch_times
            self._complete_times = complete_times
            self._value_ready = value_ready

    # ------------------------------------------------------------ interface

    @property
    def cycle_stack(self) -> CycleStack:
        """The per-category cycle attribution (``accounting=True`` only)."""
        if self._acct is None:
            raise RuntimeError(
                "pipeline was not constructed with accounting=True"
            )
        return self._acct

    def timeline(self, trace: Optional[Sequence[MicroOp]] = None):
        """The recorded timeline (``record_timeline=True`` only)."""
        from .timeline import Timeline, UopTiming

        if not self._record_timeline:
            raise RuntimeError(
                "pipeline was not constructed with record_timeline=True"
            )
        timings = [
            UopTiming(
                seq=i,
                fetch=self._fetch_times[i],
                dispatch=self._dispatch_times[i],
                issue=max(self._issue_times[i], self._dispatch_times[i]),
                complete=max(self._complete_times[i], self._issue_times[i]),
                commit=self._commit_times[i],
            )
            for i in range(len(self._commit_times))
        ]
        return Timeline(timings, trace)

"""Trace-driven out-of-order timing model.

This is the substitute for the paper's Sniper+GEMS cycle-level simulator
(see DESIGN.md).  It is a *constraint-based scoreboard*: micro-ops are
processed in program order and each one's fetch / dispatch / issue /
complete / commit cycles are computed from

* front-end bandwidth and redirect barriers (branch mispredictions,
  memory-order squashes, bypass-verification squashes),
* window occupancy (ROB, IQ, LQ, SB — an op cannot dispatch until the entry
  it reuses has been released),
* dataflow readiness (producer value-ready times),
* execution-port contention (pipelined pools per class), and
* the memory-dependence predictor's decision for every load (Fig. 5's
  three-way prediction and its consequences).

The model captures exactly the phenomena the paper measures: loads stalled
by (possibly false) predicted dependencies, squashes from missed or
misdirected dependencies, store-to-load forwarding, and SMB making a load's
value available to consumers as soon as the store's *data* is ready —
before either address is known.  Absolute IPC is approximate; relative IPC
between predictor schemes on the same trace is the quantity of interest.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..analysis.accuracy import OutcomeKind, classify
from ..branch.base import BranchPredictor
from ..branch.tage import TAGEBranchPredictor
from ..memory.hierarchy import MemoryHierarchy
from ..obs.cycles import CycleStack
from ..predictors.base import ActualOutcome, MDPredictor, PredictionKind
from ..trace.uop import MicroOp, OpClass
from .config import GOLDEN_COVE, CoreConfig
from .lsu import StoreTiming, StoreWindow
from .ports import PortSet
from .stats import PipelineStats

__all__ = ["Pipeline"]

#: Window categories in stall-attribution priority order (ROB first),
#: indexed in step with the release points captured by :meth:`_dispatch`.
_WINDOW_CATEGORIES = ("window_rob", "window_iq", "window_lq", "window_sb")

#: Op classes eligible for the Sec. VI-A consumer-wait metric (hoisted:
#: the membership test runs once per dynamic uop).
_CONSUMER_OPS = (OpClass.ALU, OpClass.MUL, OpClass.DIV, OpClass.FP)


class Pipeline:
    """One core, one trace, one memory-dependence predictor."""

    def __init__(
        self,
        predictor: MDPredictor,
        config: CoreConfig = GOLDEN_COVE,
        branch_predictor: Optional[BranchPredictor] = None,
        hierarchy: Optional[MemoryHierarchy] = None,
        record_timeline: bool = False,
        accounting: bool = False,
    ):
        self.config = config
        self.predictor = predictor
        self.branch_predictor = branch_predictor or TAGEBranchPredictor()
        self.hierarchy = hierarchy or MemoryHierarchy(config.memory)
        self.ports = PortSet(config.load_ports, config.store_ports,
                             config.alu_ports, config.fp_ports)
        self.stats = PipelineStats()

        # Front-end state.
        self._fetch_cycle = 0
        self._fetch_slots = 0
        self._barrier = 0

        # Commit state.
        self._commit_cycle = 0
        self._commit_slots = 0

        # Per-uop timing history (indexed by seq).
        self._value_ready: List[int] = []
        self._issue_times: List[int] = []
        self._commit_times: List[int] = []

        # Per-class occupancy histories for LQ/SB release constraints.
        self._load_commits: List[int] = []
        self._store_drains: List[int] = []

        # In-flight store tracking.
        self._stores = StoreWindow(capacity=max(config.sb_size * 2, 256))
        #: The store most recently timed by _step_store; _step refines its
        #: drain once the commit cycle is known.
        self._pending_store: Optional[StoreTiming] = None
        self._branch_count = 0
        # Warmup boundary (see run()); _measuring is refreshed per uop.
        self._measure_from = 0
        self._measuring = True
        # Optional per-uop event capture (see timeline()).
        self._record_timeline = record_timeline
        self._fetch_times: List[int] = []
        self._dispatch_times: List[int] = []
        self._complete_times: List[int] = []
        # Optional cycle accounting (see cycle_stack).  Each measured uop's
        # commit-to-commit gap is attributed to one or more stall
        # categories; the per-category sums reconstruct stats.cycles
        # exactly (CycleStack.validate is the invariant).
        self._acct: Optional[CycleStack] = CycleStack() if accounting else None
        self._acct_prev_commit = 0
        self._acct_exec = "execute"
        self._acct_port_from = 0
        self._acct_dep_from = 0
        self._acct_window = (0, 0, 0, 0)
        self._acct_barrier_bound = False
        # Bug-2 bookkeeping: which seqs produced a load value (consumer-wait
        # metric must count only consumers of loads).
        self._produced_by_load: List[bool] = []

    # ------------------------------------------------------------ front end

    def _fetch(self, seq: int) -> int:
        """Assign a fetch cycle honouring width and redirect barriers."""
        if self._barrier > self._fetch_cycle:
            self._fetch_cycle = self._barrier
            self._fetch_slots = 0
        cycle = self._fetch_cycle
        self._fetch_slots += 1
        if self._fetch_slots >= self.config.fetch_width:
            self._fetch_cycle += 1
            self._fetch_slots = 0
        return cycle

    def _redirect(self, cycle: int) -> None:
        """Redirect the front end: later uops fetch from ``cycle`` on."""
        if cycle > self._barrier:
            self._barrier = cycle

    def _dispatch(self, seq: int, fetch: int, uop: MicroOp) -> int:
        """Rename/dispatch cycle after window-occupancy constraints."""
        cfg = self.config
        rob_point = iq_point = lq_point = sb_point = 0
        rob_victim = seq - cfg.rob_size
        if rob_victim >= 0:
            rob_point = self._commit_times[rob_victim]
        iq_victim = seq - cfg.iq_size
        if iq_victim >= 0:
            iq_point = self._issue_times[iq_victim]
        if uop.is_load and len(self._load_commits) >= cfg.lq_size:
            lq_point = self._load_commits[-cfg.lq_size]
        if uop.is_store and len(self._store_drains) >= cfg.sb_size:
            sb_point = self._store_drains[-cfg.sb_size]
        if self._acct is not None:
            self._acct_window = (rob_point, iq_point, lq_point, sb_point)
        return max(fetch + cfg.frontend_latency,
                   rob_point, iq_point, lq_point, sb_point)

    def _sources_ready(self, uop: MicroOp) -> int:
        ready = 0
        for src in uop.srcs:
            t = self._value_ready[src]
            if t > ready:
                ready = t
        return ready

    def _address_ready(self, uop: MicroOp, dispatch: int) -> int:
        """When a memory op's address operand is available."""
        ready = dispatch + 1
        if uop.addr_src is not None:
            t = self._value_ready[uop.addr_src]
            if t > ready:
                ready = t
        return ready

    # ---------------------------------------------------------------- commit

    def _commit(self, complete: int) -> int:
        """In-order commit with commit-width limiting."""
        cycle = complete + 1
        if cycle < self._commit_cycle:
            cycle = self._commit_cycle
        if cycle > self._commit_cycle:
            self._commit_cycle = cycle
            self._commit_slots = 0
        self._commit_slots += 1
        if self._commit_slots >= self.config.commit_width:
            self._commit_cycle += 1
            self._commit_slots = 0
        return cycle

    # ------------------------------------------------------------------ run

    def run(self, trace: Sequence[MicroOp],
            measure_from: int = 0) -> PipelineStats:
        """Simulate the trace; returns (and stores) the statistics.

        ``measure_from`` designates a warmup prefix: micro-ops before that
        sequence number execute normally (training predictors, warming
        caches) but are excluded from IPC and accuracy statistics — the
        warmed-measurement discipline of the paper's SimPoint methodology.
        """
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
        self._measure_from = measure_from
        # Branch statistics accumulate from cycle 0; snapshot them at the
        # warmup boundary so the reported misprediction counts cover the
        # same measured window as stats.branches (MPKI would otherwise mix
        # full-run mispredictions with measured-window uop counts).
        bstats = self.branch_predictor.stats
        step = self._step
        for uop in trace[:measure_from]:
            step(uop)
        warm_mispredicts = bstats.mispredictions
        warm_indirect = bstats.indirect_mispredictions
        for uop in trace[measure_from:]:
            step(uop)
        measured = len(trace) - measure_from
        self.stats.instructions = measured
        start_cycle = (
            self._commit_times[measure_from - 1] if measure_from > 0 else 0
        )
        self.stats.cycles = max(self._commit_cycle - start_cycle, 1)
        self.stats.accuracy.instructions = measured
        self.stats.branch_mispredictions = (
            bstats.mispredictions - warm_mispredicts
        )
        self.stats.indirect_mispredictions = (
            bstats.indirect_mispredictions - warm_indirect
        )
        if self._acct is not None:
            # Cycles between the last measured commit and the final commit
            # frontier (commit-width rollover) belong to commit bandwidth.
            tail = self.stats.cycles - self._acct.total
            if tail > 0:
                self._acct.add("commit", tail)
        return self.stats

    @property
    def cycle_stack(self) -> CycleStack:
        """The per-category cycle attribution (``accounting=True`` only)."""
        if self._acct is None:
            raise RuntimeError(
                "pipeline was not constructed with accounting=True"
            )
        return self._acct

    def _step(self, uop: MicroOp) -> None:
        cfg = self.config
        self._measuring = uop.seq >= self._measure_from
        barrier = self._barrier
        fetch = self._fetch(uop.seq)
        dispatch = self._dispatch(uop.seq, fetch, uop)
        ready = self._sources_ready(uop)
        earliest_issue = max(dispatch + 1, ready)
        if self._acct is not None:
            self._acct_barrier_bound = barrier > 0 and fetch == barrier
            self._acct_exec = "execute"
            self._acct_port_from = earliest_issue
            self._acct_dep_from = earliest_issue

        # Sec. VI-A's consumer-wait metric: cycles an op that consumes at
        # least one load value spends in the issue stage waiting on sources.
        if self._measuring and uop.srcs and uop.op in _CONSUMER_OPS:
            produced = self._produced_by_load
            for src in uop.srcs:
                if produced[src]:
                    self.stats.load_consumers += 1
                    wait = ready - (dispatch + 1)
                    if wait > 0:
                        self.stats.load_consumer_wait_cycles += wait
                    break

        if uop.op is OpClass.ALU:
            issue = self.ports.alu.issue(earliest_issue)
            complete = issue + cfg.alu_latency
            value = complete
        elif uop.op is OpClass.MUL:
            issue = self.ports.alu.issue(earliest_issue)
            complete = issue + cfg.mul_latency
            value = complete
        elif uop.op is OpClass.DIV:
            issue = self.ports.alu.issue(earliest_issue,
                                         occupancy=cfg.div_latency)
            complete = issue + cfg.div_latency
            value = complete
        elif uop.op is OpClass.FP:
            issue = self.ports.fp.issue(earliest_issue)
            complete = issue + cfg.fp_latency
            value = complete
        elif uop.op is OpClass.BRANCH_COND:
            issue = self.ports.alu.issue(earliest_issue)
            complete = issue + cfg.branch_latency
            value = complete
            if self._measuring:
                self.stats.branches += 1
            correct = self.branch_predictor.predict_and_train(
                uop.pc, uop.taken
            )
            if not correct:
                self._redirect(complete + 1)
            self.predictor.on_branch(uop.pc, uop.taken)
            self._branch_count += 1
        elif uop.op is OpClass.BRANCH_INDIRECT:
            issue = self.ports.alu.issue(earliest_issue)
            complete = issue + cfg.branch_latency
            value = complete
            if self._measuring:
                self.stats.branches += 1
            correct = self.branch_predictor.observe_indirect(uop.pc, uop.target)
            if not correct:
                self._redirect(complete + 1)
            self.predictor.on_indirect(uop.pc, uop.target)
            self._branch_count += 1
        elif uop.op is OpClass.STORE:
            issue, complete, value = self._step_store(uop, dispatch, ready)
        elif uop.op is OpClass.LOAD:
            issue, complete, value = self._step_load(uop, dispatch, ready)
        else:  # NOP
            issue = earliest_issue
            complete = issue
            value = complete

        commit = self._commit(complete)
        self._issue_times.append(issue)
        self._commit_times.append(commit)
        self._value_ready.append(value)
        self._produced_by_load.append(uop.is_load)
        if self._record_timeline:
            self._fetch_times.append(fetch)
            self._dispatch_times.append(dispatch)
            self._complete_times.append(complete)
        if uop.is_load:
            self._load_commits.append(commit)
        if uop.is_store:
            # Refine the provisional StoreTiming.drain now that the commit
            # cycle is known: the SB entry frees sb_drain_latency cycles
            # after commit, and no load may forward from it afterwards.
            drain = commit + cfg.sb_drain_latency
            self._store_drains.append(drain)
            self._pending_store.drain = drain
        if self._acct is not None:
            self._account(uop, fetch, dispatch, issue, complete, commit)

    # ----------------------------------------------------------- accounting

    def _account(self, uop: MicroOp, fetch: int, dispatch: int,
                 issue: int, complete: int, commit: int) -> None:
        """Attribute this uop's commit-to-commit gap to stall categories.

        The commit stream is in order, so the cycles between consecutive
        measured commits partition stats.cycles exactly.  Each gap is
        carved top-down along the uop's own lifecycle breakpoints — every
        segment is clamped to the (prev_commit, commit] window, so the
        per-category sums reconstruct the measured cycle count by
        construction no matter how the breakpoints interleave.
        """
        if not self._measuring:
            self._acct_prev_commit = commit
            return
        lo = self._acct_prev_commit
        self._acct_prev_commit = commit
        hi = commit
        if hi <= lo:
            return
        stack = self._acct
        cuts = [
            (complete, "commit"),
            (issue, self._acct_exec),
            (self._acct_port_from, "ports"),
            (self._acct_dep_from, "dependence"),
            (dispatch + 1, "src_wait"),
        ]
        frontier = fetch + self.config.frontend_latency
        if dispatch > frontier:
            points = self._acct_window
            wcat = _WINDOW_CATEGORIES[points.index(max(points))]
            cuts.append((frontier, wcat))
        # A uop whose fetch was pinned to the redirect barrier charges its
        # front-end span (resteer + refill) to "redirect"; ordinary fetch
        # streaming is "frontend" bandwidth.
        front = "redirect" if self._acct_barrier_bound else "frontend"
        cuts.append((fetch, front))
        for point, cat in cuts:
            if point < lo:
                point = lo
            if point < hi:
                stack.add(cat, hi - point)
                hi = point
        if hi > lo:
            # Cycles before this uop even fetched: the front end was either
            # waiting at the redirect barrier or streaming earlier uops.
            stack.add(front, hi - lo)

    # ---------------------------------------------------------------- stores

    def _step_store(self, uop: MicroOp, dispatch: int, data_ready: int):
        cfg = self.config
        if self._measuring:
            self.stats.stores += 1
        # The predictor may serialise this store behind an older one in its
        # store set (Store Sets' LFST chaining).
        ordering_constraint = self.predictor.on_store(uop.seq, uop.pc)
        addr_ready = self._address_ready(uop, dispatch)
        if self._acct is not None:
            self._acct_dep_from = addr_ready
        if ordering_constraint is not None:
            older = self._stores.by_seq(ordering_constraint)
            if older is not None and older.addr_resolve + 1 > addr_ready:
                addr_ready = older.addr_resolve + 1
        # Address generation waits only for the address operand, not data.
        agu_issue = self.ports.store.issue(addr_ready)
        addr_resolve = agu_issue + cfg.agu_latency
        data_avail = max(data_ready, dispatch + 1)
        complete = max(addr_resolve, data_avail)
        if self._acct is not None:
            self._acct_port_from = addr_ready
        self.hierarchy.store_probe(uop.address)
        # The drain time is provisional until the store commits: _step
        # overwrites it with commit + sb_drain_latency once the commit
        # cycle is known, before any younger load can snoop this record
        # (uops are processed in program order).
        timing = StoreTiming(
            seq=uop.seq, pc=uop.pc,
            addr_resolve=addr_resolve,
            data_ready=data_avail,
            # The +64 is provisional slack so no load snoops a still-pending
            # drain; the batched engine computes the final drain at commit
            # directly and never needs the placeholder.
            # repro-lint: allow(eq-config-literal) -- provisional drain slack, batched refines at commit
            drain=complete + cfg.sb_drain_latency + 64,
            branch_count=self._branch_count,
        )
        self._stores.add(timing)
        self._pending_store = timing
        return agu_issue, complete, complete

    # ----------------------------------------------------------------- loads

    def _step_load(self, uop: MicroOp, dispatch: int, ready: int):
        cfg = self.config
        if self._measuring:
            self.stats.loads += 1
        prediction = self.predictor.predict(uop)
        addr_ready = max(self._address_ready(uop, dispatch), ready)
        if self._acct is not None:
            self._acct_dep_from = addr_ready

        # Resolve the predicted store to a timing record, if any.
        target: Optional[StoreTiming] = None
        if prediction.predicts_dependence:
            if prediction.store_seq is not None:
                target = self._stores.by_seq(prediction.store_seq)
            else:
                target = self._stores.by_distance(prediction.distance)

        # Issue constraint from the prediction (Fig. 5 actions).
        wait_until = addr_ready
        if prediction.kind is not PredictionKind.NO_DEP and target is not None:
            hold = target.addr_resolve
            if prediction.meta.get("conservative"):
                hold += 1  # the oracle's +1-cycle serialisation (Sec. VI-A)
            if hold > wait_until:
                if self._measuring:
                    self.stats.loads_stalled_by_prediction += 1
                wait_until = hold

        issue = self.ports.load.issue(wait_until)
        if self._acct is not None:
            self._acct_port_from = wait_until

        # Ground truth.
        actual_store = self._stores.by_seq(uop.dep_store_seq)
        actual = self._actual_outcome(uop, actual_store)
        outcome = classify(prediction, actual,
                           self.predictor.bypassable_classes)
        if self._measuring:
            self.stats.accuracy.record(outcome)

        # Execute the load against SB / cache.
        squash_at: Optional[int] = None
        if uop.has_dependence and actual_store is not None:
            if issue < actual_store.addr_resolve:
                # Memory-order violation: the conflicting store's address
                # was unknown when the load issued.  Detected when the store
                # resolves; load and younger ops squash and re-execute.
                squash_at = actual_store.addr_resolve + 1
                complete = (
                    max(squash_at + cfg.squash_overhead,
                        actual_store.forward_ready)
                    + cfg.forward_latency
                )
            elif issue > actual_store.drain:
                # The store left the SB before the load issued: nothing to
                # forward from, so the value comes from the cache (the
                # store's write has drained into it by then).
                complete = self.hierarchy.timed_load(
                    uop.pc, uop.address, issue + cfg.agu_latency - 1
                )
            else:
                # Store-to-load forwarding through the SB.
                if self._measuring:
                    self.stats.loads_forwarded += 1
                complete = (
                    max(issue, actual_store.forward_ready)
                    + cfg.forward_latency
                )
        else:
            complete = self.hierarchy.timed_load(
                uop.pc, uop.address, issue + cfg.agu_latency - 1
            )

        value = complete

        # Speculative memory bypassing (Fig. 5's right-hand side).
        if prediction.kind is PredictionKind.SMB and target is not None:
            if outcome.kind is OutcomeKind.CORRECT_SMB:
                # Consumers obtain the store's data register directly; the
                # load still executes to verify (its own completion stands).
                if self._measuring:
                    self.stats.loads_bypassed += 1
                bypass_value = max(target.data_ready + 1, dispatch + 1)
                if bypass_value < value:
                    value = bypass_value
            else:
                # Wrong value delivered: verification fails when the load's
                # own access completes (or earlier, on the address check).
                addr_check = max(issue, target.addr_resolve) + 1
                verify = min(complete, max(addr_check, issue + 1))
                squash_at = max(squash_at or 0, verify)
                complete = max(complete, verify + cfg.squash_overhead)
                value = complete

        if squash_at is not None:
            if self._measuring:
                self.stats.memory_squashes += 1
            self._redirect(squash_at + cfg.squash_overhead)
        if self._acct is not None:
            self._acct_exec = "squash" if squash_at is not None else "memory"

        # Commit-time training.
        self.predictor.train(uop, prediction, actual)
        return issue, complete, value

    def _actual_outcome(self, uop: MicroOp,
                        actual_store: Optional[StoreTiming]) -> ActualOutcome:
        branches_between = 0
        store_pc = None
        if uop.has_dependence:
            if actual_store is not None:
                branches_between = self._branch_count - actual_store.branch_count
                store_pc = actual_store.pc
        return ActualOutcome.from_uop(
            uop, branches_between=branches_between, store_pc=store_pc
        )

    def timeline(self, trace: Optional[Sequence[MicroOp]] = None):
        """Return the recorded :class:`~repro.core.timeline.Timeline`.

        Requires construction with ``record_timeline=True``.
        """
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

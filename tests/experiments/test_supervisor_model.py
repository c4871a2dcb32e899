"""Model check of the supervisor loop over scripted slots.

A derandomized hypothesis state machine draws a grid (traces ×
predictors), a slot count and the fail-fast mode, and runs
``parallel._run_supervised`` on :class:`_FakeSlots` in a helper thread.
Each step hands the supervisor's next ``wait`` one event: a cell
finishes, raises, loses its worker (the slot respawns or not), or every
slot hangs until the oldest in-flight cell passes its deadline.  The
supervisor and the test never run at once, so a run is deterministic.

After every step the run is checked against a reference model:

* each dispatch is the one a ten-line reference of ``_pick`` chooses;
* no cell is dispatched twice, and a slot token claims a trace at most
  once;
* each failure is charged to exactly the cell that ran, with its kind;
* each task is notified at most once, and exactly once by the end;
* merged results equal a serial run, position by position;
* the run terminates.

Tier 1 runs a small example budget; the ``slow`` variant (CI
fault-injection job) a larger one.
"""

import queue
import threading
from collections import Counter

import pytest
from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.experiments import parallel
from repro.experiments.backends import WorkerLostError
from repro.experiments.parallel import CellSpec
from repro.predictors import PerfectMDP, PredictorSpec
from repro.experiments.resilience import (
    CellTimeoutError,
    FailureKind,
    ResiliencePolicy,
)
from tests.experiments.test_parallel import _FakeSlots

BENCHMARKS = ["lbm", "mcf", "exchange2", "xz"]

#: Cell timeout of the modelled runs, on an integer clock: deadlines
#: compare exactly.
TIMEOUT = 10

#: Seconds one handoff may take before the supervisor counts as stuck.
STUCK = 10.0

OK = "ok"


def reference_pick(token, queued, held, trace):
    """The position idle ``token`` should run next: its own trace, else
    an unclaimed trace, else the first cell of the most-queued trace."""
    claimed = set().union(*held.values())
    for wanted in (held[token].__contains__,
                   lambda t: t not in claimed):
        for position in queued:
            if wanted(trace(position)):
                return position
    if not queued:
        return None
    counts = Counter(trace(position) for position in queued)
    most = max(counts.values())
    return next(p for p in queued if counts[trace(p)] == most)


class _Clock:
    """Stands in for the ``time`` module inside the supervisor."""

    def __init__(self):
        self.now = 0

    def monotonic(self):
        return self.now


class _Stop(Exception):
    """Ends a supervisor thread parked in ``wait``."""


class _Driver:
    """Runs the supervisor in a thread that stops at every ``wait``."""

    def __init__(self, tasks, labels, policy, clock):
        self.tasks, self.policy = tasks, policy
        self.backend = _FakeSlots(labels, self._next_action, clock)
        self.notified = []
        self.error = None
        self.finished = False
        self._to_supervisor = queue.Queue()
        self._to_test = queue.Queue()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _next_action(self, backend):
        self._to_test.put(None)
        action = self._to_supervisor.get()
        if action is None:
            raise _Stop()
        return action

    def _run(self):
        try:
            parallel._run_supervised(self.tasks, self.backend, self.policy,
                                     None, notify=self.notified.append)
        except Exception as error:  # noqa: BLE001 — checked by the test
            self.error = error
        finally:
            self.finished = True
            self._to_test.put(None)

    def _handoff(self):
        try:
            self._to_test.get(timeout=STUCK)
        except queue.Empty:
            raise AssertionError("supervisor neither waited nor returned")

    def start(self):
        self._thread.start()
        self._handoff()

    def step(self, action):
        self._to_supervisor.put(action)
        self._handoff()

    def stop(self):
        """End the thread; True when it has ended."""
        if not self.finished:
            self._to_supervisor.put(None)
        self._thread.join(STUCK)
        return not self._thread.is_alive()


class SupervisorMachine(RuleBasedStateMachine):
    """The supervisor against a reference model of one run."""

    driver = None
    #: False while a step is in flight or after a failed check, so
    #: teardown only finishes runs that so far match the model.
    consistent = False

    @initialize(traces=st.integers(1, len(BENCHMARKS)),
                predictors=st.integers(1, 3), slots=st.integers(1, 3),
                fail_fast=st.booleans(), data=st.data())
    def start(self, traces, predictors, slots, fail_fast, data):
        grid = [(b, p) for b in BENCHMARKS[:traces]
                for p in range(predictors)]
        grid = data.draw(st.permutations(grid), label="grid")
        self.cells = [CellSpec(mode="accuracy", benchmark=b, num_uops=1000,
                               predictor=PredictorSpec(f"p{p}", PerfectMDP))
                      for b, p in grid]
        self.fail_fast = fail_fast
        # Reference state.
        self.queued = list(range(len(self.cells)))
        self.running = {}   # token -> position
        self.started = {}   # position -> clock at dispatch
        self.held = {}      # token -> traces given to it
        self.expected = {}  # position -> OK or FailureKind
        self.raised = None  # expected exception type under fail-fast
        self.ended = False
        self.claims = Counter()  # (token, trace) -> claims
        self.logged = 0

        self.clock = _Clock()
        tasks = [parallel._Task(position=i, spec=spec, key=None)
                 for i, spec in enumerate(self.cells)]
        policy = ResiliencePolicy(cell_timeout=TIMEOUT, fail_fast=fail_fast)
        self.driver = _Driver(tasks, [f"s{i}" for i in range(slots)],
                              policy, self.clock)
        self.real_time, parallel.time = parallel.time, self.clock
        self.driver.start()
        self._check_dispatch(self._dispatch())
        self.consistent = True

    def teardown(self):
        if self.driver is None:
            return
        try:
            if self.consistent:
                self._finish_the_run()
        finally:
            ended = self.driver.stop()
            parallel.time = self.real_time
        assert ended, "the supervisor thread outlived the run"

    def _finish_the_run(self):
        """The run terminates: finishing what runs ends it, with every
        task notified once and results merged as a serial run."""
        for _ in range(len(self.cells) + 1):
            if self.driver.finished:
                break
            self._settle([self._busy()[0]], OK, ("finish",))
        assert self.driver.finished, "the run did not terminate"
        self._check_settled()
        if self.raised is None:
            merged = [None] * len(self.cells)
            for task in self.driver.notified:
                merged[task.position] = (task.result if task.failure is None
                                         else task.failure.spec)
            assert merged == self.cells

    # ------------------------------------------------------ the model

    def trace(self, position):
        return self.cells[position].trace_key

    def _busy(self):
        return [t for t in self.driver.backend.slots() if t in self.running]

    def _fail(self, positions, kind):
        for position in positions:
            self.expected[position] = kind
        if self.fail_fast and positions:
            self.raised = {FailureKind.ERROR: RuntimeError,
                           FailureKind.TIMEOUT: CellTimeoutError,
                           FailureKind.WORKER_LOST: WorkerLostError}[kind]
            self.ended = True

    def _dispatch(self):
        """What the supervisor does after settling: fail the queue if no
        slot is left, else give each idle slot its reference pick."""
        if self.ended:
            return []
        live = self.driver.backend.slots()
        if not self.running and not live:
            self._fail(list(self.queued), FailureKind.WORKER_LOST)
            self.queued = []
        self.ended = self.ended or not (self.queued or self.running)
        if self.ended:
            return []
        self.held = {t: self.held.get(t, set()) for t in live}
        dispatched = []
        for token in live:
            if token in self.running:
                continue
            position = reference_pick(token, self.queued, self.held,
                                      self.trace)
            if position is None:
                break
            self.queued.remove(position)
            self.running[token] = position
            self.started[position] = self.clock.now
            if self.trace(position) not in self.held[token]:
                self.claims[(token, self.trace(position))] += 1
            self.held[token].add(self.trace(position))
            dispatched.append((token, position))
        return dispatched

    def _settle(self, tokens, outcome, action):
        """Settle the cells running on ``tokens`` and hand ``action``
        (completed with the first token's label) to the supervisor."""
        self.consistent = False
        positions = [self.running.pop(token) for token in tokens]
        if outcome == OK:
            for position in positions:
                self.expected[position] = OK
        else:
            self._fail(positions, outcome)
        if action[0] != "tick":
            action = (action[0], tokens[0].label)
        self.driver.step(action)
        self._check_dispatch(self._dispatch())
        self._check_settled()
        self.consistent = True

    def _check_dispatch(self, dispatched):
        log = self.driver.backend.log[self.logged:]
        self.logged = len(self.driver.backend.log)
        position_of = {id(spec): i for i, spec in enumerate(self.cells)}
        assert [(t, position_of[id(spec)]) for t, spec in log] \
            == dispatched
        assert self.driver.finished == self.ended

    def _check_settled(self):
        """Each failure is charged to the cell that ran, with its kind;
        under fail-fast the first one raises and none is merged."""
        settled = {}
        for task in self.driver.notified:
            settled[task.position] = (OK if task.failure is None
                                      else task.failure.kind)
            if task.failure is not None:
                assert task.failure.spec is self.cells[task.position]
        assert settled == {p: outcome for p, outcome in self.expected.items()
                           if outcome == OK or not self.fail_fast}
        if self.raised is None:
            assert self.driver.error is None, self.driver.error
        else:
            assert isinstance(self.driver.error, self.raised), \
                self.driver.error

    # ------------------------------------------------------- the events

    def _pick_busy(self, data):
        busy = self._busy()
        return busy[data.draw(st.integers(0, len(busy) - 1), label="slot")]

    @precondition(lambda self: not self.ended)
    @rule(data=st.data())
    def finish(self, data):
        self._settle([self._pick_busy(data)], OK, ("finish",))

    @precondition(lambda self: not self.ended)
    @rule(data=st.data())
    def cell_raises(self, data):
        self._settle([self._pick_busy(data)], FailureKind.ERROR,
                     ("error",))

    @precondition(lambda self: not self.ended)
    @rule(data=st.data(), respawn=st.booleans())
    def worker_dies(self, data, respawn):
        self.driver.backend.respawns = respawn
        self._settle([self._pick_busy(data)], FailureKind.WORKER_LOST,
                     ("lose",))

    @precondition(lambda self: not self.ended)
    @rule(respawn=st.booleans())
    def hang_past_deadline(self, respawn):
        self.driver.backend.respawns = respawn
        deadline = min(self.started[p] for p in self.running.values()) \
            + TIMEOUT
        expired = [t for t in self._busy()
                   if self.started[self.running[t]] + TIMEOUT <= deadline]
        self._settle(expired, FailureKind.TIMEOUT,
                     ("tick", deadline - self.clock.now))

    @precondition(lambda self: self.ended)
    @rule()
    def after_the_run(self):
        """Nothing happens once the run has returned."""
        assert self.driver.finished

    # ---------------------------------------------------- invariants

    @invariant()
    def no_cell_dispatched_twice(self):
        if self.driver is None:
            return
        specs = [id(spec) for _, spec in self.driver.backend.log]
        assert len(specs) == len(set(specs))

    @invariant()
    def a_token_claims_a_trace_once(self):
        if self.driver is None:
            return
        assert all(count == 1 for count in self.claims.values())
        given = {(id(token), spec.trace_key)
                 for token, spec in self.driver.backend.log}
        assert len(given) == sum(self.claims.values())

    @invariant()
    def each_task_notified_at_most_once(self):
        if self.driver is None:
            return
        positions = [task.position for task in self.driver.notified]
        assert len(positions) == len(set(positions))


SMALL = settings(derandomize=True, database=None, deadline=None,
                 max_examples=25, stateful_step_count=15,
                 suppress_health_check=[HealthCheck.too_slow])

TestSupervisorModel = SupervisorMachine.TestCase
TestSupervisorModel.settings = SMALL


@pytest.mark.slow
def test_supervisor_model_large_budget():
    run_state_machine_as_test(SupervisorMachine, settings=settings(
        SMALL, max_examples=400, stateful_step_count=40))

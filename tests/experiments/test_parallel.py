"""Determinism golden tests for the parallel suite execution engine.

The contract under test: ``jobs=N`` produces a grid **bit-identical** to
the serial path for any N, and a warm on-disk cache reproduces the same
grid without running a single simulation.  The dispatch tests pin trace
affinity: a worker generates a trace only for the traces it claims or
steals, under the own → claim → steal rule.
"""

import functools
import json
import os

import pytest

from repro.core.config import LION_COVE
from repro.experiments import parallel, runner
from repro.experiments.backends import WorkerLostError
from repro.experiments.parallel import (
    CellSpec,
    Execution,
    execute_cells,
    resolve_cache,
)
from repro.experiments.resilience import ResiliencePolicy
from repro.experiments.result_cache import ResultCache, cell_key
from repro.experiments.suite import run_accuracy_suite, run_ipc_suite
from repro.predictors import PerfectMDP, PredictorSpec

#: ≥3 predictors × ≥3 benchmarks, as the determinism contract demands
#: (the perfect-mdp baseline joins automatically, making it 4 predictors).
PREDICTORS = ["mascot", "phast", "nosq"]
BENCHES = ["exchange2", "lbm", "perlbench1"]
N = 4_000


def _grids_identical(a, b):
    """Bit-identical comparison: exact float equality, full stats."""
    assert a.ipc == b.ipc  # exact ==, not approx: bit-identical IPC
    assert a.baseline == b.baseline
    for name, per_bench in a.stats.items():
        for bench, stats in per_bench.items():
            assert stats.to_dict() == b.stats[name][bench].to_dict()
    for name in a.ipc:
        assert a.normalised(name) == b.normalised(name)
        assert a.geomean(name) == b.geomean(name)


class TestIpcDeterminism:
    @pytest.fixture(scope="class")
    def serial(self):
        return run_ipc_suite(PREDICTORS, BENCHES, N,
                             execution=Execution(jobs=1))

    def test_parallel_matches_serial(self, serial):
        _grids_identical(run_ipc_suite(PREDICTORS, BENCHES, N,
                                       execution=Execution(jobs=4)),
                         serial)

    def test_cached_run_identical_without_recompute(self, serial, tmp_path,
                                                    monkeypatch):
        cache = ResultCache(tmp_path / "cache")
        warm = run_ipc_suite(PREDICTORS, BENCHES, N,
                             execution=Execution(jobs=1, cache=cache))
        _grids_identical(warm, serial)
        assert cache.stores == len(BENCHES) * (len(PREDICTORS) + 1)

        # Spy on the compute function: a warm sweep must never call it.
        calls = []
        real = parallel.compute_cell
        monkeypatch.setattr(parallel, "compute_cell",
                            lambda spec: calls.append(spec) or real(spec))
        rerun = run_ipc_suite(PREDICTORS, BENCHES, N,
                              execution=Execution(jobs=1, cache=cache))
        assert calls == []
        _grids_identical(rerun, serial)

    def test_warm_cache_with_parallel_jobs(self, serial, tmp_path,
                                           monkeypatch):
        """Warm hits short-circuit before any pool is spawned."""
        cache_dir = tmp_path / "cache"
        run_ipc_suite(PREDICTORS, BENCHES, N,
                      execution=Execution(jobs=2, cache=cache_dir))
        monkeypatch.setattr(parallel, "compute_cell", _refuse_to_compute)
        rerun = run_ipc_suite(PREDICTORS, BENCHES, N,
                              execution=Execution(jobs=4, cache=cache_dir))
        _grids_identical(rerun, serial)


def _refuse_to_compute(spec):
    raise AssertionError(f"cell recomputed despite warm cache: {spec}")


class TestAccuracyDeterminism:
    def test_parallel_matches_serial(self):
        serial = run_accuracy_suite(PREDICTORS, BENCHES, N,
                                    execution=Execution(jobs=1))
        parallel_run = run_accuracy_suite(PREDICTORS, BENCHES, N,
                                          execution=Execution(jobs=2))
        for name in PREDICTORS:
            for bench in BENCHES:
                assert (serial[name][bench].to_dict()
                        == parallel_run[name][bench].to_dict())

    def test_cached_accuracy_run(self, tmp_path, monkeypatch):
        cache_dir = tmp_path / "cache"
        first = run_accuracy_suite(["mascot"], BENCHES, N,
                                   execution=Execution(cache=cache_dir))
        monkeypatch.setattr(parallel, "compute_cell", _refuse_to_compute)
        second = run_accuracy_suite(["mascot"], BENCHES, N,
                                    execution=Execution(cache=cache_dir))
        for bench in BENCHES:
            assert (first["mascot"][bench].to_dict()
                    == second["mascot"][bench].to_dict())


class TestExecuteCells:
    def test_results_keyed_by_position_not_completion(self):
        """A mixed-cost batch comes back in request order."""
        cells = [
            CellSpec(mode="accuracy", benchmark=bench, num_uops=N,
                     predictor=name)
            for bench in ("lbm", "exchange2") for name in ("phast", "mascot")
        ]
        results = execute_cells(cells, jobs=3)
        singles = [execute_cells([cell], jobs=1)[0] for cell in cells]
        for merged, single in zip(results, singles):
            assert merged.to_dict() == single.to_dict()

    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError):
            execute_cells([], jobs=0)

    def test_empty_batch(self):
        assert execute_cells([], jobs=4) == []

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            CellSpec(mode="sideways", benchmark="lbm", num_uops=1,
                     predictor="mascot")
        with pytest.raises(ValueError):
            CellSpec(mode="timing", benchmark="lbm", num_uops=1,
                     predictor="mascot")  # no core config

    def test_specs_are_picklable(self):
        import pickle
        spec = CellSpec(mode="timing", benchmark="lbm", num_uops=100,
                        predictor="mascot", config=LION_COVE)
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_engine_argument_is_accepted_but_never_stored(self):
        """``engine=`` survives only for callers that still pass it: the
        one value each mode always ran with, and it changes nothing."""
        timing = dict(mode="timing", benchmark="lbm", num_uops=100,
                      predictor="mascot", config=LION_COVE)
        accuracy = dict(mode="accuracy", benchmark="lbm", num_uops=100,
                        predictor="mascot")
        for fields, engine in ((timing, "batched"), (accuracy, "scalar")):
            plain = CellSpec(**fields)
            passed = CellSpec(**fields, engine=engine)
            assert passed == plain and hash(passed) == hash(plain)
            assert cell_key(passed) == cell_key(plain)
        with pytest.raises(ValueError, match="construct the scalar"):
            CellSpec(**timing, engine="scalar")
        for fields, engine in ((accuracy, "batched"), (timing, "fast")):
            with pytest.raises(ValueError):
                CellSpec(**fields, engine=engine)

    @pytest.mark.parametrize("store", ["cache", "metrics"])
    def test_each_pending_cell_is_keyed_once(self, store, tmp_path,
                                             monkeypatch):
        calls = []

        def counting_key(spec):
            calls.append(spec)
            return cell_key(spec)

        monkeypatch.setattr(parallel, "cell_key", counting_key)
        cells = [CellSpec(mode="accuracy", benchmark="lbm", num_uops=1_000,
                          predictor=name) for name in ("mascot", "nosq")]
        execute_cells(cells, **{store: tmp_path / store})
        assert calls == cells


def _counting_generate_trace(log_path, real):
    """``generate_trace`` that appends ``pid benchmark`` to ``log_path``."""
    @functools.wraps(real)
    def generate(benchmark, *args, **kwargs):
        with open(log_path, "a") as log:
            log.write(f"{os.getpid()} {benchmark}\n")
        return real(benchmark, *args, **kwargs)
    return generate


class TestTraceAffinity:
    def test_each_worker_generates_only_the_traces_it_runs(self, tmp_path,
                                                           monkeypatch):
        """3 benchmarks x 4 predictors on two slots: a slot generates a
        trace once, and only for a benchmark it claimed or stole, so the
        run makes 3 generations plus at most one tail steal (a shared
        pool makes up to 6)."""
        cells = [CellSpec(mode="timing", benchmark=bench, num_uops=N,
                          predictor=name, config=LION_COVE)
                 for bench in BENCHES for name in PREDICTORS + ["perfect-mdp"]]
        serial = execute_cells(cells)
        gen_log = tmp_path / "gen.log"
        metrics = tmp_path / "m.jsonl"
        monkeypatch.setattr(runner, "generate_trace", _counting_generate_trace(
            gen_log, runner.generate_trace))
        runner.default_cache().clear()  # forked slots inherit nothing
        results = execute_cells(cells, jobs=2, metrics=metrics)
        assert ([r.to_dict() for r in results]
                == [r.to_dict() for r in serial])

        generated = {}
        for line in gen_log.read_text().splitlines():
            pid, bench = line.split()
            generated.setdefault(pid, []).append(bench)
        ran = {}
        for record in map(json.loads, metrics.read_text().splitlines()):
            if record["event"] == "cell":
                ran.setdefault(record["worker"], set()).add(
                    record["benchmark"])
        assert set(ran) == {"local:0", "local:1"}
        for benches in generated.values():
            assert len(benches) == len(set(benches))  # once per worker
        assert (sorted(sorted(b) for b in generated.values())
                == sorted(sorted(b) for b in ran.values()))
        calls = sum(len(b) for b in generated.values())
        assert len(BENCHES) <= calls <= len(BENCHES) + 1


class _Handle:
    def __init__(self, label, spec):
        self.label, self.spec, self.error = label, spec, None


class _Token:
    def __init__(self, label):
        self.label = label


class _FakeSlots:
    """Duck-typed ``LocalPoolBackend`` whose cells settle when told to.

    Each ``wait`` takes one action from ``next_action(self)``:
    ``("finish" | "error" | "lose", label)`` settles the cell running on
    the slot labelled ``label`` (``lose`` kills its worker), and
    ``("tick", seconds)`` advances ``clock.now`` and settles nothing.  A
    lost or forgotten slot is respawned at once as a fresh token with
    the same label while ``respawns`` holds, else dropped.  ``log``
    records ``(token, spec)`` per submit.
    """

    def __init__(self, labels, next_action, clock=None):
        #: Slot tokens by index; None marks a dropped slot.
        self.tokens = [_Token(label) for label in labels]
        self.next_action = next_action
        self.clock = clock
        self.respawns = True
        self.log = []
        self.inflight = {}

    def slots(self):
        return [token for token in self.tokens if token is not None]

    def submit(self, slot, fn, spec):
        self.log.append((slot, spec))
        handle = _Handle(slot.label, spec)
        self.inflight[handle] = slot
        return handle

    def _lose(self, slot):
        index = self.tokens.index(slot)
        self.tokens[index] = _Token(slot.label) if self.respawns else None

    def wait(self, timeout):
        action, arg = self.next_action(self)
        if action == "tick":
            self.clock.now += arg
            return set()
        handle = next(h for h, slot in self.inflight.items()
                      if slot.label == arg)
        slot = self.inflight.pop(handle)
        if action == "lose":
            self._lose(slot)
            handle.error = WorkerLostError(f"lost {arg}")
        elif action == "error":
            handle.error = RuntimeError(f"failed on {arg}")
        return {handle}

    def result(self, handle):
        if handle.error is not None:
            raise handle.error
        return handle.spec

    def forget(self, handle):
        slot = self.inflight.pop(handle, None)
        if slot is not None:
            self._lose(slot)

    def close(self):
        pass

    def describe(self, handle):
        return handle.label


def _scripted(script):
    """``next_action`` playing ``script``, then finishing the oldest
    in-flight cell."""
    script = list(script)

    def next_action(backend):
        if script:
            return script.pop(0)
        return ("finish", next(iter(backend.inflight)).label)
    return next_action


def _affine_run(backend_cls, labels, script, traces):
    """Supervise ``traces`` (one cell per letter, benchmark per letter)
    on scripted slots under --keep-going; returns the dispatch log."""
    names = {"a": "lbm", "b": "mcf", "c": "exchange2"}
    tasks = [parallel._Task(position=i, key=None, spec=CellSpec(
                 mode="accuracy", benchmark=names[letter], num_uops=N,
                 predictor=PredictorSpec(f"p{i}", PerfectMDP)))
             for i, letter in enumerate(traces)]
    backend = backend_cls(labels, _scripted(script))
    parallel._run_supervised(tasks, backend,
                             ResiliencePolicy(fail_fast=False), None)
    assert all(task.result is not None or task.failure is not None
               for task in tasks)
    return [(slot.label, f"{spec.benchmark}/{spec.predictor.name}")
            for slot, spec in backend.log]


@pytest.mark.parametrize("backend_cls", [_FakeSlots])
class TestPickRule:
    def test_own_then_claim_then_steal(self, backend_cls):
        log = _affine_run(backend_cls, ["A", "B"],
                          [("finish", "A")] * 4, "abcbaa")
        assert log[:6] == [
            ("A", "lbm/p0"), ("B", "mcf/p1"),        # two claims
            ("A", "lbm/p4"), ("A", "lbm/p5"),        # own before unheld
            ("A", "exchange2/p2"),                   # claim the unheld
            ("A", "mcf/p3"),                         # steal, else idle
        ]

    def test_steal_takes_the_trace_with_most_queued_cells(self,
                                                          backend_cls):
        log = _affine_run(backend_cls, ["A", "B", "C"], [], "abbaa")
        assert log[:3] == [("A", "lbm/p0"), ("B", "mcf/p1"),
                           ("C", "lbm/p3")]  # not mcf/p2, queued first

    def test_lost_slot_releases_its_claims(self, backend_cls):
        """A's worker dies running lbm/p0 and A respawns holding
        nothing; lbm is nobody's now, so the new slot claims lbm/p2 (the
        first unheld cell) rather than exchange2/p3.  The lost cell
        fails and is never dispatched again."""
        log = _affine_run(backend_cls, ["A", "B"], [("lose", "A")],
                          "abac")
        assert log[:3] == [("A", "lbm/p0"), ("B", "mcf/p1"),
                           ("A", "lbm/p2")]
        assert [cell for _, cell in log].count("lbm/p0") == 1


class TestResolveCache:
    def test_disabled_forms(self):
        assert resolve_cache(None) is None
        assert resolve_cache(False) is None

    def test_path_form(self, tmp_path):
        cache = resolve_cache(tmp_path / "c")
        assert isinstance(cache, ResultCache)
        assert cache.directory == tmp_path / "c"

    def test_instance_passthrough(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert resolve_cache(cache) is cache

    def test_true_uses_default_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        assert resolve_cache(True).directory == tmp_path / "env"


class TestFigureParallelism:
    """Spot-check that figure generators produce identical output via jobs."""

    def test_fig7_identical(self):
        from repro.experiments.figures import fig7_ipc_full
        serial = fig7_ipc_full(["exchange2", "lbm"], N)
        sharded = fig7_ipc_full(["exchange2", "lbm"], N,
                                execution=Execution(jobs=2))
        assert serial.render() == sharded.render()
        assert serial.suite.ipc == sharded.suite.ipc

    def test_fig14_f1_profile_identical(self, tmp_path):
        from repro.experiments.figures import fig14_f1_ranking
        serial = fig14_f1_ranking(["perlbench1"], 8_000, period_loads=1_000)
        cached = fig14_f1_ranking(
            ["perlbench1"], 8_000, period_loads=1_000,
            execution=Execution(jobs=2, cache=tmp_path))
        warm = fig14_f1_ranking(["perlbench1"], 8_000, period_loads=1_000,
                                execution=Execution(cache=tmp_path))
        assert serial.profile.ranked == cached.profile.ranked
        assert serial.profile.ranked == warm.profile.ranked

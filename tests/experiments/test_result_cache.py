"""Property tests for the content-addressed result cache.

Two invariants matter: any single-field change to a cell's parameters
yields a different key, and no on-disk damage ever surfaces as anything
worse than a cache miss.
"""

import dataclasses
import fnmatch
import json
import multiprocessing
import os
import shutil
import stat
import sys
import threading

import pytest

from repro.analysis.accuracy import AccuracyStats, Outcome, OutcomeKind
from repro.predictors.base import PredictionKind
from repro.core.config import GOLDEN_COVE, LION_COVE
from repro.core.stats import PipelineStats
from repro.experiments import parallel
from repro.experiments.parallel import CellSpec, execute_cells
from repro.experiments.result_cache import (
    _PACKAGE_ROOT as REAL_PACKAGE_ROOT,
    CACHE_DIR_ENV,
    ResultCache,
    cell_key,
    default_cache_dir,
    encode_result,
    shared_code_salt,
)
from repro.experiments.runner import PredictionRunResult
from repro.predictors import PREDICTORS


BASE = CellSpec(mode="accuracy", benchmark="lbm", num_uops=5_000,
                predictor="mascot")


def _variant(**changes):
    return dataclasses.replace(BASE, **changes)


class TestCellKey:
    def test_stable_across_calls(self):
        assert cell_key(BASE) == cell_key(BASE)
        assert cell_key(BASE) == cell_key(_variant())

    @pytest.mark.parametrize("changes", [
        {"benchmark": "mcf"},
        {"num_uops": 5_001},
        {"program_seed": 7},
        {"trace_seed": 2},
        {"store_window": 115},
        {"instr_window": 256},
        {"warmup": 100},
        {"f1_period": 500},
        {"predictor": "phast"},
        {"predictor": "nosq"},
    ], ids=lambda c: next(iter(c)))
    def test_single_field_change_changes_key(self, changes):
        assert cell_key(_variant(**changes)) != cell_key(BASE)

    def test_mode_changes_key(self):
        timing = _variant(mode="timing", config=GOLDEN_COVE)
        assert cell_key(timing) != cell_key(BASE)

    def test_core_config_changes_key(self):
        golden = _variant(mode="timing", config=GOLDEN_COVE)
        lion = _variant(mode="timing", config=LION_COVE)
        assert cell_key(golden) != cell_key(lion)

    def test_single_core_parameter_changes_key(self):
        base = _variant(mode="timing", config=GOLDEN_COVE)
        tweaked = _variant(mode="timing",
                           config=dataclasses.replace(GOLDEN_COVE,
                                                      sb_size=115))
        assert cell_key(base) != cell_key(tweaked)

    def test_keys_are_filename_safe_hex(self):
        key = cell_key(BASE)
        assert len(key) == 64
        int(key, 16)  # raises if not hex

    def test_shared_code_salt_is_stable(self):
        assert shared_code_salt() == shared_code_salt()


def _sample_accuracy_result():
    stats = AccuracyStats()
    stats.instructions = 5_000
    stats.record(Outcome(OutcomeKind.CORRECT_MDP, PredictionKind.MDP, True))
    stats.record(Outcome(OutcomeKind.MISSED_DEP, PredictionKind.NO_DEP, False))
    stats.record(Outcome(OutcomeKind.CORRECT_NODEP, PredictionKind.NO_DEP,
                         True))
    return PredictionRunResult(accuracy=stats,
                               predictions_per_table=[3, 1, 0])


class TestRoundTrip:
    def test_accuracy_result(self, tmp_path):
        cache = ResultCache(tmp_path)
        original = _sample_accuracy_result()
        cache.store("k" * 64, original)
        loaded = cache.load("k" * 64)
        assert isinstance(loaded, PredictionRunResult)
        assert loaded.to_dict() == original.to_dict()
        assert loaded.accuracy.mispredictions == 1

    def test_timing_result_via_engine(self, tmp_path):
        """A real timing cell round-trips with every counter intact."""
        cache = ResultCache(tmp_path)
        spec = CellSpec(mode="timing", benchmark="exchange2", num_uops=4_000,
                        predictor="mascot", config=GOLDEN_COVE)
        (direct,) = execute_cells([spec], cache=cache)
        (cached,) = execute_cells([spec], cache=cache)
        assert isinstance(direct, PipelineStats)
        assert cached.to_dict() == direct.to_dict()
        assert cached.ipc == direct.ipc
        assert cache.hits == 1

    def test_f1_profile_round_trips(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = CellSpec(mode="accuracy", benchmark="perlbench1",
                        num_uops=6_000,
                        predictor=PREDICTORS["mascot"].with_(track_f1=True),
                        f1_period=1_000)
        (direct,) = execute_cells([spec], cache=cache)
        (cached,) = execute_cells([spec], cache=cache)
        assert direct.f1_profile is not None
        assert cached.f1_profile.ranked == direct.f1_profile.ranked
        assert cached.f1_profile.periods == direct.f1_profile.periods

    def test_counters(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.load("a" * 64) is None
        cache.store("a" * 64, _sample_accuracy_result())
        cache.load("a" * 64)
        assert (cache.misses, cache.stores, cache.hits) == (1, 1, 1)


class TestCorruptionIsAMiss:
    KEY = "b" * 64

    @pytest.fixture
    def warm(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store(self.KEY, _sample_accuracy_result())
        return cache

    def test_truncated_file(self, warm):
        path = warm.path_for(self.KEY)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        assert warm.load(self.KEY) is None

    def test_not_json(self, warm):
        warm.path_for(self.KEY).write_text("not json at all {{{")
        assert warm.load(self.KEY) is None

    def test_empty_file(self, warm):
        warm.path_for(self.KEY).write_text("")
        assert warm.load(self.KEY) is None

    def test_wrong_key_in_body(self, warm):
        """A file renamed/copied to the wrong key must not be served."""
        payload = json.loads(warm.path_for(self.KEY).read_text())
        other = ResultCache(warm.directory)
        other.path_for("c" * 64).write_text(json.dumps(payload))
        assert other.load("c" * 64) is None

    def test_schema_version_mismatch(self, warm):
        path = warm.path_for(self.KEY)
        payload = json.loads(path.read_text())
        payload["v"] = 999
        path.write_text(json.dumps(payload))
        assert warm.load(self.KEY) is None

    def test_unknown_result_kind(self, warm):
        path = warm.path_for(self.KEY)
        payload = json.loads(path.read_text())
        payload["result"]["kind"] = "mystery"
        path.write_text(json.dumps(payload))
        assert warm.load(self.KEY) is None

    def test_mangled_result_body(self, warm):
        path = warm.path_for(self.KEY)
        payload = json.loads(path.read_text())
        payload["result"]["data"] = {"wrong": "shape"}
        path.write_text(json.dumps(payload))
        assert warm.load(self.KEY) is None

    def test_corrupt_entry_recomputed_and_repaired(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = CellSpec(mode="accuracy", benchmark="lbm", num_uops=4_000,
                        predictor="phast")
        (first,) = execute_cells([spec], cache=cache)
        cache.path_for(cell_key(spec)).write_text("garbage")
        (second,) = execute_cells([spec], cache=cache)
        assert second.to_dict() == first.to_dict()
        (third,) = execute_cells([spec], cache=cache)  # repaired on store
        assert third.to_dict() == first.to_dict()
        assert cache.hits == 1

    def test_store_into_missing_directory(self, tmp_path):
        cache = ResultCache(tmp_path / "a" / "b" / "c")
        cache.store("d" * 64, _sample_accuracy_result())
        assert cache.load("d" * 64) is not None


class TestQuarantine:
    KEY = "e" * 64

    @pytest.fixture
    def warm(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store(self.KEY, _sample_accuracy_result())
        return cache

    def test_corrupt_entry_is_moved_to_corrupt_dir(self, warm):
        path = warm.path_for(self.KEY)
        path.write_text("garbage {{{")
        assert warm.load(self.KEY) is None
        assert not path.exists()
        quarantined = warm.quarantine_dir / path.name
        assert quarantined.read_text() == "garbage {{{"
        assert warm.quarantined == 1

    def test_digest_mismatch_is_quarantined(self, warm):
        path = warm.path_for(self.KEY)
        payload = json.loads(path.read_text())
        payload["digest"] = "0" * 64
        path.write_text(json.dumps(payload))
        assert warm.load(self.KEY) is None
        assert warm.quarantined == 1
        assert not path.exists()

    def test_stale_schema_is_a_miss_not_quarantined(self, warm):
        """An old-schema entry is merely stale: overwritten on the next
        store, never treated as damage."""
        path = warm.path_for(self.KEY)
        payload = json.loads(path.read_text())
        payload["v"] = 1
        path.write_text(json.dumps(payload))
        assert warm.load(self.KEY) is None
        assert warm.quarantined == 0
        assert path.exists()

    def test_repeated_corruption_gets_numbered_names(self, warm):
        path = warm.path_for(self.KEY)
        for round_number in (1, 2):
            path.write_text(f"garbage {round_number}")
            assert warm.load(self.KEY) is None
        assert warm.quarantined == 2
        assert (warm.quarantine_dir / path.name).exists()
        assert (warm.quarantine_dir / f"{path.name}.1").exists()

    def test_non_utf8_entry_is_quarantined(self, warm):
        """A byte flipped to a non-UTF-8 value in transit (a damaged
        copy from another host) is corruption, not a crash."""
        path = warm.path_for(self.KEY)
        data = bytearray(path.read_bytes())
        data[data.index(b'"result"') + 12] ^= 0x80
        path.write_bytes(bytes(data))
        assert warm.load(self.KEY) is None
        assert warm.quarantined == 1
        assert not path.exists()

    def test_quarantined_entry_not_served_after_recompute(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = CellSpec(mode="accuracy", benchmark="lbm", num_uops=4_000,
                        predictor="phast")
        (first,) = execute_cells([spec], cache=cache)
        cache.path_for(cell_key(spec)).write_text("garbage")
        (second,) = execute_cells([spec], cache=cache)
        assert second.to_dict() == first.to_dict()
        # The repaired entry now hits; the quarantined file is ignored.
        (third,) = execute_cells([spec], cache=cache)
        assert third.to_dict() == first.to_dict()
        assert cache.hits == 1
        assert cache.quarantined == 1


class TestCopiedCacheDirectories:
    """Hosts share results by copying cache directories; every copied
    entry is verified on load, so a merged directory needs no import
    step and a damaged copy costs one recompute, never a wrong number."""

    GRID = [CellSpec(mode="accuracy", benchmark=benchmark, num_uops=4_000,
                     predictor=predictor)
            for benchmark in ("lbm", "exchange2")
            for predictor in ("mascot", "phast")]

    def test_merged_directories_serve_the_grid(self, tmp_path, monkeypatch):
        serial = execute_cells(self.GRID)
        half = len(self.GRID) // 2
        execute_cells(self.GRID[:half], cache=tmp_path / "host-a")
        execute_cells(self.GRID[half:], cache=tmp_path / "host-b")
        merged = tmp_path / "merged"
        for host in ("host-a", "host-b"):
            shutil.copytree(tmp_path / host, merged, dirs_exist_ok=True)

        # Flip one byte of one copied entry's payload: still valid JSON,
        # but its digest no longer matches.
        damaged = merged / f"{cell_key(self.GRID[-1])}.json"
        text = damaged.read_text()
        start = text.index('"result"')
        digit = next(i for i in range(start, len(text)) if text[i].isdigit())
        flipped = "1" if text[digit] == "0" else "0"
        damaged.write_text(text[:digit] + flipped + text[digit + 1:])

        calls = []
        real = parallel.compute_cell
        monkeypatch.setattr(parallel, "compute_cell",
                            lambda spec: calls.append(spec) or real(spec))
        cache = ResultCache(merged)
        results = execute_cells(self.GRID, cache=cache)
        assert calls == [self.GRID[-1]]
        assert cache.quarantined == 1
        assert ([encode_result(r) for r in results]
                == [encode_result(r) for r in serial])


class TestProbeWritable:
    def test_creates_and_probes(self, tmp_path):
        cache = ResultCache(tmp_path / "fresh")
        assert cache.probe_writable() is None
        assert cache.directory.is_dir()
        assert list(cache.directory.iterdir()) == []  # probe cleaned up

    def test_reports_failure_reason(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        error = ResultCache(blocker / "sub").probe_writable()
        assert error is not None


class TestDefaultDir:
    def test_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "override"))
        assert default_cache_dir() == tmp_path / "override"

    def test_fallback_under_home(self, monkeypatch):
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        path = default_cache_dir()
        assert path.name == "repro-mascot"
        assert path.parent.name == ".cache"


class TestPredictorSalt:
    """The code-version salt covers predictor code outside the defining
    module: an edit to an imported predictor module must re-key."""

    @pytest.fixture
    def package_copy(self, tmp_path, monkeypatch):
        import repro.experiments.result_cache as rc

        shutil.copytree(rc._PACKAGE_ROOT, tmp_path / "repro",
                        ignore=shutil.ignore_patterns("__pycache__"))
        monkeypatch.setattr(rc, "_PACKAGE_ROOT", tmp_path / "repro")
        rc.shared_code_salt.cache_clear()
        yield tmp_path / "repro"
        rc.shared_code_salt.cache_clear()

    def test_edit_to_imported_module_changes_fingerprint(self,
                                                         package_copy):
        import repro.experiments.result_cache as rc

        spec = _variant(predictor="idist+store-sets")
        before = rc.cell_key(spec)
        with open(package_copy / "predictors" / "store_sets.py", "a") as f:
            f.write("\n# edited\n")
        rc.shared_code_salt.cache_clear()
        assert rc.cell_key(spec) != before

    @pytest.mark.parametrize("relative", [
        "experiments/parallel.py", "obs/cycles.py",
    ])
    def test_edit_outside_the_simulator_changes_salt(self, package_copy,
                                                     relative):
        # Modules outside the simulation packages shape results too: the
        # cell runner builds the predictor (compute_cell), and cycle
        # accounting feeds the stats.
        import repro.experiments.result_cache as rc

        before = rc.shared_code_salt()
        with open(package_copy / relative, "a") as f:
            f.write("\n# edited\n")
        rc.shared_code_salt.cache_clear()
        assert rc.shared_code_salt() != before

    def test_salt_ignores_where_the_package_lives(self, package_copy,
                                                  monkeypatch):
        # Hosts merging cache directories run the same tree from different
        # checkouts: only relative paths and bytes may enter the salt.
        import repro.experiments.result_cache as rc

        moved = rc.shared_code_salt()
        rc.shared_code_salt.cache_clear()
        monkeypatch.setattr(rc, "_PACKAGE_ROOT", REAL_PACKAGE_ROOT)
        assert rc.shared_code_salt() == moved


class TestTempFileHygiene:
    """A failed store must not strand ``<key>.json.tmp*`` forever."""

    def test_temp_name_is_per_writer(self, tmp_path, monkeypatch):
        """The temp file carries pid and thread id, matches the orphan
        glob, and the entry keeps the mode a plain write gives it."""
        cache = ResultCache(tmp_path)
        key = "9" * 64
        renamed = []
        real_replace = os.replace

        def spy(src, dst):
            renamed.append(os.path.basename(src))
            real_replace(src, dst)

        monkeypatch.setattr("os.replace", spy)
        cache.store(key, _sample_accuracy_result())
        expected = f"{key}.json.tmp{os.getpid()}-{threading.get_ident()}"
        assert renamed == [expected]
        assert fnmatch.fnmatch(expected, "*.json.tmp*")
        plain = tmp_path / "plain"
        plain.write_text("{}")
        assert (stat.S_IMODE(cache.path_for(key).stat().st_mode)
                == stat.S_IMODE(plain.stat().st_mode))

    def test_failed_store_leaves_no_tmp(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)

        def refuse(src, dst):
            raise OSError("injected: disk full")

        monkeypatch.setattr("os.replace", refuse)
        with pytest.raises(OSError, match="disk full"):
            cache.store("f" * 64, _sample_accuracy_result())
        assert cache.orphan_tmp_files() == []
        assert not cache.path_for("f" * 64).exists()
        assert cache.stores == 0

    def test_orphan_listing_and_age_gated_sweep(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.directory.mkdir(parents=True, exist_ok=True)
        fresh = cache.directory / f"{'a' * 64}.json.tmp111"
        stale = cache.directory / f"{'b' * 64}.json.tmp222"
        fresh.write_text("{}")
        stale.write_text("{}")
        old = stale.stat().st_mtime - 3_600.0
        os.utime(stale, (old, old))  # its writer died an hour ago
        assert cache.orphan_tmp_files() == sorted([fresh, stale])
        assert cache.sweep_orphan_tmp(min_age=60.0) == 1
        assert fresh.exists() and not stale.exists()
        assert cache.orphan_tmp_files() == [fresh]

    def test_entries_never_listed_as_orphans(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store("a" * 64, _sample_accuracy_result())
        assert cache.orphan_tmp_files() == []


#: Bounds on the concurrent-writer stress loops: enough overlapping
#: stores to expose a shared temp name within a run, few enough to keep
#: the tier-1 wall time flat.
STRESS_STORES = 400
STRESS_LOADS = 300
QUARANTINE_ROUNDS = 20


def _store_loop(cache, gate, key):
    """Writer process: store ``key`` STRESS_STORES times."""
    result = _sample_accuracy_result()
    gate.wait(timeout=30)
    for _ in range(STRESS_STORES):
        cache.store(key, result)


def _load_loop(cache, gate, key):
    """Reader process: every load must be a hit or a plain miss."""
    expected = _sample_accuracy_result().to_dict()
    gate.wait(timeout=30)
    for _ in range(STRESS_LOADS):
        loaded = cache.load(key)
        assert loaded is None or loaded.to_dict() == expected


def _quarantine_loop(cache, gate, key, index):
    """Two of these quarantine the same corrupt entry, round by round."""
    for round_number in range(QUARANTINE_ROUNDS):
        gate.wait(timeout=30)
        if index == 0:
            cache.path_for(key).write_text(f"garbage {round_number}")
        gate.wait(timeout=30)
        assert cache.load(key) is None


def _child(loop, directory, args, gate, outcomes):
    """Process body: run ``loop`` on its own cache and report the cache's
    counters and any error; an error breaks the barrier so that peers
    fail fast instead of waiting out its timeout."""
    cache = ResultCache(directory)
    try:
        loop(cache, gate, *args)
    except Exception as error:  # reported to the parent, never swallowed
        gate.abort()
        outcomes.put((loop.__name__, cache.counters, repr(error)))
    else:
        outcomes.put((loop.__name__, cache.counters, None))


def _run_processes(directory, targets):
    """Run ``(loop, args)`` pairs as spawned processes behind one barrier;
    returns each one's ``(loop name, counters, error)`` report."""
    context = multiprocessing.get_context("spawn")
    gate = context.Barrier(len(targets))
    outcomes = context.Queue()
    processes = [context.Process(target=_child,
                                 args=(loop, directory, args, gate, outcomes))
                 for loop, args in targets]
    for process in processes:
        process.start()
    reports = [outcomes.get(timeout=60) for _ in processes]
    for process in processes:
        process.join(timeout=30)
        assert process.exitcode == 0
    return reports


class TestConcurrentWriters:
    """Writers racing on one key need no lock: per-writer temp names and
    ``os.replace`` keep every entry whole and every store landed."""

    def test_two_writers_same_key_both_land(self, tmp_path):
        key = "a" * 64
        result = _sample_accuracy_result()
        writers = [ResultCache(tmp_path), ResultCache(tmp_path)]
        gate = threading.Barrier(2)
        errors = []

        def hammer(cache):
            gate.wait(timeout=30)
            try:
                for _ in range(STRESS_STORES):
                    cache.store(key, result)
            except Exception as error:  # surfaced by the assert below
                errors.append(error)

        threads = [threading.Thread(target=hammer, args=(cache,))
                   for cache in writers]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)  # interleave the writers finely
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert all(cache.stores == STRESS_STORES for cache in writers)
        loaded = writers[0].load(key)
        assert loaded.to_dict() == result.to_dict()
        assert writers[0].quarantined == 0
        # No residue: every temp file was renamed over the entry.
        assert writers[0].orphan_tmp_files() == []

    def test_two_writer_processes_and_a_reader(self, tmp_path):
        key = "b" * 64
        reports = _run_processes(tmp_path, [
            (_store_loop, (key,)),
            (_store_loop, (key,)),
            (_load_loop, (key,)),
        ])
        assert [error for _, _, error in reports] == [None] * 3
        for loop, counters, _ in reports:
            if loop == "_store_loop":
                assert counters["stores"] == STRESS_STORES
            else:
                assert counters["hits"] + counters["misses"] == STRESS_LOADS
            assert counters["quarantined"] == 0
        cache = ResultCache(tmp_path)
        assert cache.load(key).to_dict() == \
            _sample_accuracy_result().to_dict()
        assert cache.orphan_tmp_files() == []
        assert not cache.quarantine_dir.exists()

    def test_two_processes_quarantine_one_corrupt_entry(self, tmp_path):
        key = "c" * 64
        reports = _run_processes(tmp_path, [
            (_quarantine_loop, (key, 0)),
            (_quarantine_loop, (key, 1)),
        ])
        assert [error for _, _, error in reports] == [None, None]
        # Each round's garbage was moved aside exactly once: the loser of
        # a race found the entry gone and saw a plain miss.
        moved = sum(counters["quarantined"] for _, counters, _ in reports)
        assert moved == QUARANTINE_ROUNDS
        cache = ResultCache(tmp_path)
        assert len(list(cache.quarantine_dir.iterdir())) == QUARANTINE_ROUNDS
        assert not cache.path_for(key).exists()
        assert cache.load(key) is None
        assert cache.quarantined == 0

"""Property tests for the content-addressed result cache.

Two invariants matter: any single-field change to a cell's parameters
yields a different key, and no on-disk damage ever surfaces as anything
worse than a cache miss.
"""

import dataclasses
import json

import pytest

from repro.analysis.accuracy import AccuracyStats, Outcome, OutcomeKind
from repro.predictors.base import PredictionKind
from repro.core.config import GOLDEN_COVE, LION_COVE
from repro.core.stats import PipelineStats
from repro.experiments.parallel import CellSpec, execute_cells
from repro.experiments.result_cache import (
    CACHE_DIR_ENV,
    CacheLock,
    ResultCache,
    cell_key,
    default_cache_dir,
    predictor_fingerprint,
    shared_code_salt,
)
from repro.experiments.runner import PredictionRunResult


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

    def test_predictor_config_is_keyed(self):
        """mascot and mascot-opt share a class but not a key: the
        fingerprint captures the config dataclass, not just the module."""
        fp_default = predictor_fingerprint("mascot")
        fp_opt = predictor_fingerprint("mascot-opt")
        assert fp_default["class"] == fp_opt["class"]
        assert fp_default["config"] != fp_opt["config"]
        assert (cell_key(BASE)
                != cell_key(_variant(predictor="mascot-opt")))

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
                        num_uops=6_000, predictor="mascot",
                        f1_period=1_000, track_f1=True)
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


class TestSourceDigest:
    def test_nonexistent_entry_is_a_hard_error(self):
        from repro.experiments.result_cache import _source_digest

        with pytest.raises(ValueError, match="no_such_subpackage"):
            _source_digest(("no_such_subpackage",))

    def test_empty_directory_entry_is_a_hard_error(self, tmp_path, monkeypatch):
        import repro.experiments.result_cache as rc

        (tmp_path / "hollow").mkdir()
        monkeypatch.setattr(rc, "_PACKAGE_ROOT", tmp_path)
        with pytest.raises(ValueError, match="matches no Python files"):
            rc._source_digest(("hollow",))

    def test_shared_salt_entries_all_resolve(self):
        # The committed tuples must never trip the hard error.
        assert shared_code_salt()
        assert predictor_fingerprint("mascot")["code"]


class TestPredictorSalt:
    """Per-predictor salts cover predictor code outside the defining
    module: an edit to an imported predictor module must re-key."""

    @pytest.fixture
    def package_copy(self, tmp_path, monkeypatch):
        import shutil

        import repro.experiments.result_cache as rc

        shutil.copytree(rc._PACKAGE_ROOT / "predictors",
                        tmp_path / "repro" / "predictors")
        monkeypatch.setattr(rc, "_PACKAGE_ROOT", tmp_path / "repro")
        rc.predictor_fingerprint.cache_clear()
        rc._source_digest.cache_clear()
        yield tmp_path / "repro"
        rc.predictor_fingerprint.cache_clear()
        rc._source_digest.cache_clear()

    def test_idist_sources_include_store_sets(self):
        from repro.experiments.result_cache import predictor_sources

        sources = predictor_sources("idist+store-sets")
        assert "predictors/idist.py" in sources
        assert "predictors/store_sets.py" in sources

    def test_edit_to_imported_module_changes_fingerprint(self,
                                                         package_copy):
        import repro.experiments.result_cache as rc

        before = rc.predictor_fingerprint("idist+store-sets")["code"]
        unrelated = rc.predictor_fingerprint("phast")["code"]
        with open(package_copy / "predictors" / "store_sets.py", "a") as f:
            f.write("\n# edited\n")
        rc.predictor_fingerprint.cache_clear()
        rc._source_digest.cache_clear()
        assert rc.predictor_fingerprint("idist+store-sets")["code"] != before
        assert rc.predictor_fingerprint("phast")["code"] == unrelated


class TestCacheLock:
    """Lock-file discipline for shared (multi-coordinator) caches."""

    def test_exclusive_while_held(self, tmp_path):
        lock = CacheLock(tmp_path / "entry.lock")
        assert lock.acquire()
        rival = CacheLock(tmp_path / "entry.lock", timeout=0.2)
        assert not rival.acquire()
        lock.release()
        assert rival.acquire()
        rival.release()

    def test_lock_file_holds_token_and_is_removed_on_release(self, tmp_path):
        import os

        path = tmp_path / "entry.lock"
        with CacheLock(path) as lock:
            assert lock.acquired
            assert path.read_text() == lock.token
            pid, _, nonce = path.read_text().partition(":")
            assert pid == str(os.getpid())
            assert nonce.isdigit()
        assert not path.exists()

    def test_tokens_unique_per_acquire(self, tmp_path):
        lock = CacheLock(tmp_path / "entry.lock")
        assert lock.acquire()
        first = lock.token
        lock.release()
        assert lock.acquire()
        assert lock.token != first
        lock.release()

    def test_stale_lock_is_broken(self, tmp_path):
        import os

        path = tmp_path / "entry.lock"
        path.write_text("99999")
        old = path.stat().st_mtime - 120.0
        os.utime(path, (old, old))  # holder died two minutes ago
        lock = CacheLock(path, timeout=1.0, stale_after=30.0)
        assert lock.acquire()
        lock.release()

    def test_timeout_proceeds_unlocked(self, tmp_path):
        path = tmp_path / "entry.lock"
        path.write_text("1")  # fresh: never stale-broken within the test
        lock = CacheLock(path, timeout=0.2, stale_after=300.0)
        assert not lock.acquire()
        assert not lock.acquired
        lock.release()  # no-op, must not unlink the rival's lock
        assert path.exists()

    def test_unwritable_directory_proceeds_unlocked(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        lock = CacheLock(blocker / "entry.lock", timeout=0.2)
        assert not lock.acquire()

    def test_store_under_held_lock_counts_timeout_but_lands(self, tmp_path,
                                                            monkeypatch):
        result = _sample_accuracy_result()
        cache = ResultCache(tmp_path)
        key = cell_key(BASE)
        monkeypatch.setattr(
            ResultCache, "_lock_for",
            lambda self, path: CacheLock(path.with_name(path.name + ".lock"),
                                         timeout=0.2, stale_after=300.0))
        rival = cache._lock_for(cache.path_for(key))
        assert rival.acquire()
        try:
            cache.store(key, result)
        finally:
            rival.release()
        # Best-effort: the write proceeded unlocked and was counted.
        assert cache.lock_timeouts == 1
        assert cache.load(key) is not None

    def test_release_after_steal_leaves_new_owner_lock(self, tmp_path):
        """Regression: release used to unlink unconditionally.  When a
        stale-breaker removes A's lock and B re-acquires, A's release
        must leave B's lock file alone."""
        path = tmp_path / "entry.lock"
        ours = CacheLock(path)
        assert ours.acquire()
        path.unlink()  # a stale-breaker judged us dead...
        rival = CacheLock(path)
        assert rival.acquire()  # ...and a rival took the lock over
        ours.release()
        assert path.exists()
        assert path.read_text() == rival.token
        rival.release()
        assert not path.exists()

    def test_stale_break_skips_reacquired_lock(self, tmp_path):
        """Regression: the stale-break unlink is conditional on the lock
        still holding the token whose age was judged stale.  If the
        holder releases and a third party re-acquires between the stat
        and the unlink, the fresh lock survives."""
        import os

        path = tmp_path / "entry.lock"
        path.write_text("99999:0")
        old = path.stat().st_mtime - 120.0
        os.utime(path, (old, old))
        breaker = CacheLock(path, timeout=0.2, stale_after=30.0)
        observed = breaker._read_state()
        assert observed == ("99999:0", observed[1]) and observed[1] > 30.0
        # The race window: holder releases, someone else re-acquires.
        path.unlink()
        fresh = CacheLock(path)
        assert fresh.acquire()
        assert not breaker._unlink_if_token(observed[0])
        assert path.read_text() == fresh.token
        fresh.release()

    def test_probe_lock_clean_directory(self, tmp_path):
        assert ResultCache(tmp_path / "cache").probe_lock() is None

    def test_probe_lock_detects_non_exclusive_create(self, tmp_path,
                                                     monkeypatch):
        # Simulate a filesystem that silently ignores O_EXCL: the second
        # acquire "succeeds" while the probe still holds the lock.
        cache = ResultCache(tmp_path / "cache")
        monkeypatch.setattr(CacheLock, "acquire", lambda self: True)
        error = cache.probe_lock()
        assert error is not None and "O_EXCL" in error


class TestTempFileHygiene:
    """A failed store must not strand ``<key>.json.tmp<pid>`` forever."""

    def test_failed_store_leaves_no_tmp(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)

        def refuse(src, dst):
            raise OSError("injected: disk full")

        monkeypatch.setattr("os.replace", refuse)
        with pytest.raises(OSError, match="disk full"):
            cache.store("f" * 64, _sample_accuracy_result())
        assert cache.orphan_tmp_files() == []
        assert not cache.contains("f" * 64)
        assert cache.stores == 0

    def test_orphan_listing_and_age_gated_sweep(self, tmp_path):
        import os

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


class TestConcurrentWriters:
    """Two coordinators racing on one key: serialised, counted, intact."""

    @pytest.fixture
    def short_lock(self, monkeypatch):
        monkeypatch.setattr(
            ResultCache, "_lock_for",
            lambda self, path: CacheLock(path.with_name(path.name + ".lock"),
                                         timeout=0.2, stale_after=300.0))

    def test_two_writers_same_key_both_land(self, tmp_path):
        import threading

        key = "a" * 64
        result = _sample_accuracy_result()
        writers = [ResultCache(tmp_path), ResultCache(tmp_path)]
        gate = threading.Barrier(2)

        def hammer(cache):
            gate.wait()
            for _ in range(5):
                cache.store(key, result)

        threads = [threading.Thread(target=hammer, args=(cache,))
                   for cache in writers]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(cache.stores == 5 for cache in writers)
        loaded = writers[0].load(key)
        assert loaded.to_dict() == result.to_dict()
        # No residue: temp files consumed, every lock released.
        assert writers[0].orphan_tmp_files() == []
        assert not (tmp_path / f"{key}.json.lock").exists()

    def test_quarantine_under_held_lock_counts_timeout(self, tmp_path,
                                                       short_lock):
        cache = ResultCache(tmp_path)
        key = "c" * 64
        cache.store(key, _sample_accuracy_result())
        cache.path_for(key).write_text("garbage")
        rival = cache._lock_for(cache.path_for(key))
        assert rival.acquire()
        try:
            assert cache.load(key) is None  # proceeds unlocked
        finally:
            rival.release()
        assert cache.lock_timeouts == 1
        assert cache.quarantined == 1
        assert (cache.quarantine_dir / f"{key}.json").exists()

    def test_lock_timeouts_accumulate_across_store_and_quarantine(
            self, tmp_path, short_lock):
        cache = ResultCache(tmp_path)
        key = "d" * 64
        rival = cache._lock_for(cache.path_for(key))
        assert rival.acquire()
        try:
            cache.store(key, _sample_accuracy_result())  # timeout 1
            cache.path_for(key).write_text("garbage")
            assert cache.load(key) is None  # quarantine: timeout 2
        finally:
            rival.release()
        assert cache.lock_timeouts == 2
        assert cache.counters["lock_timeouts"] == 2

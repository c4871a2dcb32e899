"""det-*: unseeded RNG, wall-clock/entropy, id()/hash(), set order, env."""

from __future__ import annotations


class TestUnseededRng:
    def test_random_module_calls_flagged(self, box):
        box.write("cell.py", """
        import random


        def run_cell():
            return random.random() < 0.5
        """)
        assert box.active_rules() == ["det-unseeded-rng"]

    def test_random_constructor_without_seed_flagged(self, box):
        box.write("cell.py", """
        import random


        def make():
            return random.Random()
        """)
        assert box.active_rules() == ["det-unseeded-rng"]

    def test_seeded_constructor_is_clean(self, box):
        box.write("cell.py", """
        import random


        def make(seed):
            return random.Random(seed)
        """)
        assert box.active_rules() == []

    def test_numpy_default_rng_without_seed_flagged(self, box):
        box.write("cell.py", """
        import numpy as np


        def make():
            return np.random.default_rng()
        """)
        assert box.active_rules() == ["det-unseeded-rng"]

    def test_numpy_default_rng_with_seed_is_clean(self, box):
        box.write("cell.py", """
        import numpy as np


        def make(seed):
            return np.random.default_rng(seed)
        """)
        assert box.active_rules() == []

    def test_numpy_global_draw_flagged(self, box):
        box.write("cell.py", """
        import numpy as np


        def scramble(values):
            np.random.shuffle(values)
        """)
        assert box.active_rules() == ["det-unseeded-rng"]

    def test_numpy_random_from_import_module_flagged(self, box):
        # ``from numpy import random`` binds the *numpy* random module to
        # the stdlib module's usual name; draws through it are still the
        # process-global numpy RNG.
        box.write("cell.py", """
        from numpy import random


        def draw():
            return random.rand()
        """)
        assert box.active_rules() == ["det-unseeded-rng"]

    def test_numpy_random_aliased_module_flagged(self, box):
        box.write("cell.py", """
        import numpy.random as npr


        def reseed():
            npr.seed(0)
        """)
        assert box.active_rules() == ["det-unseeded-rng"]

    def test_numpy_draw_from_import_flagged(self, box):
        box.write("cell.py", """
        from numpy.random import shuffle


        def scramble(values):
            shuffle(values)
        """)
        assert box.active_rules() == ["det-unseeded-rng"]

    def test_numpy_seeded_rng_via_module_alias_is_clean(self, box):
        box.write("cell.py", """
        from numpy import random


        def make(seed):
            return random.default_rng(seed)
        """)
        assert box.active_rules() == []

    def test_method_on_local_rng_instance_is_clean(self, box):
        # rng.random() on a passed-in generator is fine: the seed is the
        # caller's responsibility, and that call chain is deterministic.
        box.write("cell.py", """
        def run_cell(rng):
            return rng.random() < 0.5
        """)
        assert box.active_rules() == []


class TestClockAndEntropy:
    def test_time_calls_flagged(self, box):
        box.write("mod.py", """
        import time


        def stamp():
            return time.time()
        """)
        assert box.active_rules() == ["det-time"]

    def test_urandom_flagged(self, box):
        box.write("mod.py", """
        import os


        def token():
            return os.urandom(8)
        """)
        assert box.active_rules() == ["det-entropy"]

    def test_uuid4_flagged(self, box):
        box.write("mod.py", """
        import uuid


        def fresh():
            return uuid.uuid4()
        """)
        assert box.active_rules() == ["det-entropy"]


class TestIdentityAndHash:
    def test_id_flagged(self, box):
        box.write("mod.py", """
        def key(obj):
            return id(obj)
        """)
        assert box.active_rules() == ["det-id"]

    def test_builtin_hash_flagged(self, box):
        box.write("mod.py", """
        def bucket(name, n):
            return hash(name) % n
        """)
        assert box.active_rules() == ["det-hash"]

    def test_dunder_hash_definition_is_clean(self, box):
        # Defining __hash__ (and delegating inside it) is legitimate.
        box.write("mod.py", """
        class Key:
            def __init__(self, pc):
                self.pc = pc

            def __hash__(self):
                return hash(self.pc)
        """)
        assert box.active_rules() == []


class TestSetOrder:
    def test_iterating_set_literal_flagged(self, box):
        box.write("mod.py", """
        def emit(a, b):
            out = []
            for item in {a, b}:
                out.append(item)
            return out
        """)
        assert box.active_rules() == ["det-set-order"]

    def test_iterating_named_set_flagged(self, box):
        box.write("mod.py", """
        def emit(items):
            seen = set(items)
            return [x * 2 for x in seen]
        """)
        assert box.active_rules() == ["det-set-order"]

    def test_sorted_set_is_clean(self, box):
        box.write("mod.py", """
        def emit(items):
            seen = set(items)
            return [x * 2 for x in sorted(seen)]
        """)
        assert box.active_rules() == []

    def test_membership_only_set_is_clean(self, box):
        box.write("mod.py", """
        def dedupe(items):
            seen = set()
            out = []
            for item in items:
                if item not in seen:
                    seen.add(item)
                    out.append(item)
            return out
        """)
        assert box.active_rules() == []


class TestEnvReads:
    def test_environ_read_flagged(self, box):
        box.write("mod.py", """
        import os


        def jobs():
            return int(os.environ.get("REPRO_JOBS", "1"))
        """)
        assert box.active_rules() == ["det-env"]

    def test_getenv_flagged(self, box):
        box.write("mod.py", """
        import os


        def jobs():
            return os.getenv("REPRO_JOBS")
        """)
        assert box.active_rules() == ["det-env"]

    def test_sanctioned_module_is_exempt(self, box):
        # The result cache is the one sanctioned env surface; mirror its
        # package path inside the fixture tree.
        box.write("repro/__init__.py", "")
        box.write("repro/experiments/__init__.py", "")
        box.write("repro/experiments/result_cache.py", """
        import os


        def cache_dir():
            return os.environ.get("REPRO_CACHE_DIR", ".cache")
        """)
        assert box.active_rules() == []


class TestSuppression:
    def test_allow_pragma_suppresses_det_finding(self, box):
        box.write("mod.py", """
        def key(obj):
            # repro-lint: allow(det-id) -- per-process memo, never persisted
            return id(obj)
        """)
        findings = box.lint()
        assert [f.rule for f in findings] == ["det-id"]
        assert findings[0].suppressed
        assert findings[0].justification == "per-process memo, never persisted"
        assert box.active_rules() == []


class TestResilienceSurface:
    """det-* coverage of the fault-tolerance modules.

    The supervisor (repro.experiments.parallel) alone may read monotonic
    clocks — they schedule work, never enter results.  The result-cache
    and resilience modules are the only sanctioned env surfaces (cache
    dir override, fault-injection switch), and resilience gets no clock
    or RNG exemption: backoff jitter must derive from cell keys.
    """

    def test_monotonic_allowed_in_supervisor(self, box):
        box.write("repro/__init__.py", "")
        box.write("repro/experiments/__init__.py", "")
        box.write("repro/experiments/parallel.py", """
        import time


        def deadline(timeout):
            return time.monotonic() + timeout
        """)
        assert box.active_rules() == []

    def test_wall_clock_still_flagged_in_supervisor(self, box):
        box.write("repro/__init__.py", "")
        box.write("repro/experiments/__init__.py", "")
        box.write("repro/experiments/parallel.py", """
        import time


        def stamp():
            return time.time()
        """)
        assert box.active_rules() == ["det-time"]

    def test_monotonic_flagged_outside_supervisor(self, box):
        box.write("repro/__init__.py", "")
        box.write("repro/experiments/__init__.py", "")
        box.write("repro/experiments/resilience.py", """
        import time


        def jitter():
            return time.monotonic() % 1.0
        """)
        assert box.active_rules() == ["det-time"]

    def test_random_jitter_flagged_in_resilience(self, box):
        # Backoff jitter must come from the cell key, not the global RNG.
        box.write("repro/__init__.py", "")
        box.write("repro/experiments/__init__.py", "")
        box.write("repro/experiments/resilience.py", """
        import random


        def backoff_jitter():
            return random.random()
        """)
        assert box.active_rules() == ["det-unseeded-rng"]

    def test_bench_harness_clock_and_write_sanctioned(self, box):
        # The throughput bench's product *is* perf_counter deltas, and it
        # writes the committed baseline file — both sanctioned for
        # repro.experiments.bench_baseline only.
        box.write("repro/__init__.py", "")
        box.write("repro/experiments/__init__.py", "")
        box.write("repro/experiments/bench_baseline.py", """
        import time
        from pathlib import Path


        def measure(fn, path):
            start = time.perf_counter()
            fn()
            elapsed = time.perf_counter() - start
            Path(path).write_text(str(elapsed))
            return elapsed
        """)
        assert box.active_rules() == []

    def test_process_time_sanctioned_in_bench_harness_only(self, box):
        # CPU time has no wall-time meaning: the bench harness times
        # engines with it, and it stays flagged everywhere else.
        box.write("repro/__init__.py", "")
        box.write("repro/experiments/__init__.py", "")
        box.write("repro/experiments/bench_baseline.py", """
        import time


        def measure(fn):
            start = time.process_time()
            fn()
            return time.process_time_ns() - start
        """)
        assert box.active_rules() == []
        box.write("repro/experiments/resilience.py", """
        import time


        def jitter():
            return time.process_time() % 1.0
        """)
        assert box.active_rules() == ["det-time"]

    def test_wall_clock_still_flagged_in_bench_harness(self, box):
        box.write("repro/__init__.py", "")
        box.write("repro/experiments/__init__.py", "")
        box.write("repro/experiments/bench_baseline.py", """
        import time


        def stamp():
            return time.time()
        """)
        assert box.active_rules() == ["det-time"]

    def test_env_sanctioned_in_cache_and_resilience_only(self, box):
        box.write("repro/__init__.py", "")
        box.write("repro/experiments/__init__.py", "")
        box.write("repro/experiments/result_cache.py", """
        import os


        def cache_dir():
            return os.environ.get("REPRO_CACHE_DIR", "cache")
        """)
        box.write("repro/experiments/resilience.py", """
        import os


        def fault_spec():
            return os.environ.get("REPRO_FAULT_INJECT", "")
        """)
        assert box.active_rules() == []
        # The retired run journal's directory override is no longer a
        # sanctioned knob.
        box.write("repro/experiments/journal.py", """
        import os


        def journal_dir():
            return os.environ.get("REPRO_JOURNAL_DIR", "journals")
        """)
        assert box.active_rules() == ["det-env"]


class TestFileWrites:
    """det-write: file writes confined to the sanctioned output surface."""

    def test_open_for_write_flagged(self, box):
        box.write("cell.py", """
        def dump(rows):
            with open("debug.txt", "w") as handle:
                handle.write(repr(rows))
        """)
        assert box.active_rules() == ["det-write"]

    def test_append_and_exclusive_modes_flagged(self, box):
        box.write("cell.py", """
        def log(line, path):
            open(path, mode="a").write(line)


        def create(path):
            return open(path, "x")
        """)
        assert box.active_rules() == ["det-write", "det-write"]

    def test_read_mode_is_clean(self, box):
        box.write("cell.py", """
        def slurp(path):
            with open(path) as handle:
                return handle.read()


        def slurp_binary(path):
            return open(path, "rb").read()
        """)
        assert box.active_rules() == []

    def test_path_write_text_flagged(self, box):
        box.write("cell.py", """
        from pathlib import Path


        def dump(path, text):
            Path(path).write_text(text)
        """)
        assert box.active_rules() == ["det-write"]

    def test_path_open_write_mode_flagged(self, box):
        box.write("cell.py", """
        from pathlib import Path


        def appender(path):
            return Path(path).open("a")
        """)
        assert box.active_rules() == ["det-write"]

    def test_path_open_read_mode_is_clean(self, box):
        box.write("cell.py", """
        from pathlib import Path


        def reader(path):
            return Path(path).open("r")
        """)
        assert box.active_rules() == []

    def test_metrics_writer_is_sanctioned(self, box):
        box.write("repro/__init__.py", "")
        box.write("repro/obs/__init__.py", "")
        box.write("repro/obs/metrics.py", """
        def emit(path, line):
            with open(path, "a", encoding="utf-8") as handle:
                handle.write(line + "\\n")
        """)
        assert box.active_rules() == []

    def test_trace_serialisation_is_sanctioned(self, box):
        box.write("repro/__init__.py", "")
        box.write("repro/trace/__init__.py", "")
        box.write("repro/trace/stream.py", """
        def write_trace(path, lines):
            with open(path, "w") as handle:
                handle.writelines(lines)
        """)
        assert box.active_rules() == []

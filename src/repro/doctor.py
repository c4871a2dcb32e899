"""Environment health checks behind ``repro doctor``.

A sweep that fails hours in because the cache directory is read-only, or
worker processes cannot spawn, wastes far more than the seconds these
checks take up front.  ``repro doctor`` probes every piece of machinery a
fault-tolerant suite run relies on and prints one ``ok``/``FAIL`` line per
check with an actionable message; the exit status is non-zero when any
check fails.

Checks:

* result-cache directory is creatable and writable,
* a worker process can be spawned and returns a result (the parallel
  engine's substrate),
* no orphaned ``.tmp*`` files have accumulated in the cache directory
  (a crashed writer leaves at most a few; doctor sweeps ones older than
  an hour and reports what it removed),
* the trace generator produces a benchmark trace (simulator smoke test).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

__all__ = ["run_doctor", "worker_probe"]

#: Generous ceiling for the worker-spawn probe; a healthy pool answers in
#: well under a second, and a hang here is exactly what doctor must catch.
_SPAWN_TIMEOUT = 30.0


def worker_probe(value: int) -> int:
    """Module-level doubling function: picklable under every start method."""
    return 2 * value


def _check_cache_dir(cache_dir: Optional[str]) -> Tuple[bool, str]:
    from .experiments.result_cache import ResultCache

    cache = ResultCache(cache_dir)
    error = cache.probe_writable()
    if error is not None:
        return False, (f"cache dir {cache.directory} not writable: {error} "
                       "— set $REPRO_CACHE_DIR or pass --cache-dir")
    return True, f"cache dir writable: {cache.directory}"


def _check_orphan_tmp(cache_dir: Optional[str]) -> Tuple[bool, str]:
    from .experiments.result_cache import ResultCache

    cache = ResultCache(cache_dir)
    orphans = cache.orphan_tmp_files()
    if not orphans:
        return True, f"no orphaned .tmp files: {cache.directory}"
    swept = cache.sweep_orphan_tmp(min_age=3600.0)
    remaining = len(orphans) - swept
    note = (f"swept {swept} orphaned .tmp file(s) older than 1h, "
            f"{remaining} recent one(s) left in {cache.directory}")
    # Recent temp files may belong to a live writer mid-store; only a
    # backlog that survives the sweep indicates leaking writers.
    return remaining == 0, note


def _check_worker_spawn() -> Tuple[bool, str]:
    from concurrent.futures import ProcessPoolExecutor

    try:
        with ProcessPoolExecutor(max_workers=1) as pool:
            result = pool.submit(worker_probe, 21).result(
                timeout=_SPAWN_TIMEOUT)
    except Exception as error:  # noqa: BLE001 — any spawn failure mode
        return False, (f"worker spawn failed: {type(error).__name__}: "
                       f"{error} — parallel execution (--jobs) will not "
                       "work on this host")
    if result != 42:
        return False, f"worker returned {result!r}, expected 42"
    return True, "worker spawn ok"


def _check_simulator() -> Tuple[bool, str]:
    from .trace import generate_trace

    try:
        trace = generate_trace("exchange2", 64)
    except Exception as error:  # noqa: BLE001 — smoke test, report anything
        return False, f"trace generation failed: {type(error).__name__}: " \
                      f"{error}"
    return True, f"simulator smoke ok: generated {len(trace)} micro-ops"


def run_doctor(cache_dir: Optional[str] = None) -> int:
    """Run every check, print one line each; 0 iff all passed."""
    checks: List[Tuple[str, Callable[[], Tuple[bool, str]]]] = [
        ("cache", lambda: _check_cache_dir(cache_dir)),
        ("cache-tmp", lambda: _check_orphan_tmp(cache_dir)),
        ("workers", _check_worker_spawn),
        ("simulator", _check_simulator),
    ]
    failures = 0
    for name, check in checks:
        passed, message = check()
        status = "ok  " if passed else "FAIL"
        print(f"{status} [{name}] {message}")
        if not passed:
            failures += 1
    if failures:
        print(f"{failures} check(s) failed")
        return 1
    print("all checks passed")
    return 0

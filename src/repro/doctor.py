"""Environment health checks behind ``repro doctor``.

A sweep that fails hours in because the cache directory is read-only, or
worker processes cannot spawn, wastes far more than the seconds these
checks take up front.  ``repro doctor`` probes every piece of machinery a
fault-tolerant suite run relies on and prints one ``ok``/``FAIL`` line per
check with an actionable message; the exit status is non-zero when any
check fails.

Checks:

* result-cache directory is creatable and writable,
* run-journal directory is creatable and writable,
* a worker process can be spawned and returns a result (the parallel
  engine's substrate),
* every ``--workers host:port`` endpoint answers the protocol handshake
  with a matching version (distributed-backend preflight; unreachable or
  version-skewed workers fail the check),
* no orphaned ``.tmp*`` files have accumulated in the cache directory
  (a crashed writer leaves at most a few; doctor sweeps ones older than
  an hour and reports what it removed),
* the lint baseline, when present, parses,
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


def _check_worker_endpoints(workers: str) -> Tuple[bool, str]:
    from .experiments.backends import (
        PROTOCOL_VERSION,
        FrameError,
        ProtocolVersionError,
        parse_endpoints,
        probe_endpoint,
    )

    try:
        endpoints = parse_endpoints(workers)
    except ValueError as error:
        return False, f"bad --workers value: {error}"
    problems = []
    reachable = 0
    for host, port in endpoints:
        try:
            probe_endpoint(host, port)
        except ProtocolVersionError as error:
            problems.append(f"{host}:{port} version skew: {error} — "
                            "redeploy the older side")
        except FrameError as error:
            problems.append(f"{host}:{port} is not a repro worker "
                            f"({error})")
        except OSError as error:
            problems.append(f"{host}:{port} unreachable ({error})")
        else:
            reachable += 1
    if problems:
        return False, "; ".join(problems)
    return True, (f"{reachable}/{len(endpoints)} worker endpoint(s) "
                  f"reachable, protocol v{PROTOCOL_VERSION}")


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


def _check_journal_dir(journal_dir: Optional[str],
                       cache_dir: Optional[str]) -> Tuple[bool, str]:
    from .experiments.journal import RunJournal, default_journal_dir

    journal = RunJournal(journal_dir or default_journal_dir(cache_dir))
    error = journal.probe_writable()
    if error is not None:
        return False, (f"journal dir {journal.directory} not writable: "
                       f"{error} — set $REPRO_JOURNAL_DIR or pass "
                       "--journal-dir")
    return True, f"journal dir writable: {journal.directory}"


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


def _check_lint_baseline() -> Tuple[bool, str]:
    from pathlib import Path

    from .lint.baseline import load_baseline
    from .lint.cli import DEFAULT_BASELINE

    path = Path(DEFAULT_BASELINE)
    if not path.exists():
        return True, f"lint baseline absent ({path}): nothing to check"
    try:
        baseline = load_baseline(path)
    except Exception as error:  # noqa: BLE001 — report any parse failure
        return False, (f"lint baseline {path} unreadable: {error} — "
                       "regenerate with 'repro lint --update-baseline'")
    return True, f"lint baseline ok: {sum(baseline.values())} entries"


def _check_simulator() -> Tuple[bool, str]:
    from .trace import generate_trace

    try:
        trace = generate_trace("exchange2", 64)
    except Exception as error:  # noqa: BLE001 — smoke test, report anything
        return False, f"trace generation failed: {type(error).__name__}: " \
                      f"{error}"
    return True, f"simulator smoke ok: generated {len(trace)} micro-ops"


def run_doctor(cache_dir: Optional[str] = None,
               journal_dir: Optional[str] = None,
               workers: Optional[str] = None) -> int:
    """Run every check, print one line each; 0 iff all passed.

    ``workers`` is a ``host:port,...`` list of ``repro worker`` endpoints
    to preflight (the ``--workers`` value a sweep would use); omitted, the
    distributed checks are skipped.
    """
    checks: List[Tuple[str, Callable[[], Tuple[bool, str]]]] = [
        ("cache", lambda: _check_cache_dir(cache_dir)),
        ("cache-tmp", lambda: _check_orphan_tmp(cache_dir)),
        ("journal", lambda: _check_journal_dir(journal_dir, cache_dir)),
        ("workers", _check_worker_spawn),
        ("lint", _check_lint_baseline),
        ("simulator", _check_simulator),
    ]
    if workers is not None:
        checks.insert(4, ("endpoints",
                          lambda: _check_worker_endpoints(workers)))
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

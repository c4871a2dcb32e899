"""Shared configuration for the figure-regeneration benches.

Every bench regenerates one of the paper's tables or figures and prints
the same rows/series the paper reports.  Scale is controlled by two
environment variables so the default run stays minutes-fast in pure
Python while a full regeneration remains one command away:

* ``REPRO_BENCH_UOPS``  — dynamic micro-ops per benchmark (default 40000).
* ``REPRO_BENCH_FULL``  — set to 1 to run the complete 22-benchmark suite
  instead of the 10-benchmark representative subset.
* ``REPRO_BENCH_JOBS``  — worker processes for suite cells (default 1;
  results are bit-identical for any value).
* ``REPRO_BENCH_CACHE`` — on-disk result cache: unset/``0`` disables,
  ``1`` uses the default directory ($REPRO_CACHE_DIR or
  ~/.cache/repro-mascot), anything else is used as the directory.  A warm
  cache makes a figure regeneration skip every unchanged simulation.

Fault tolerance (see docs/resilience.md; all unset by default, which
keeps the historical fail-fast behaviour):

* ``REPRO_BENCH_TIMEOUT``    — per-cell wall-clock timeout in seconds.
* ``REPRO_BENCH_KEEP_GOING`` — set to 1 to mark failed cells as failed
  and complete the rest of the grid instead of aborting the bench.  Each
  cell runs once; rerunning on the same ``REPRO_BENCH_CACHE`` computes
  only the failed cells.

Run:  pytest benchmarks/ --benchmark-only -s
"""

import os

import pytest

#: Representative subset covering the paper's contrasts: dependence-rich
#: (perlbench, lbm, xz), pointer-chasing (mcf), branchy integer (gcc,
#: deepsjeng), register-resident (exchange2) and streaming FP (bwaves, wrf).
REPRESENTATIVE_SUITE = [
    "perlbench1", "perlbench2", "gcc4", "mcf", "deepsjeng", "exchange2",
    "xz", "bwaves", "lbm", "wrf",
]


def bench_uops() -> int:
    return int(os.environ.get("REPRO_BENCH_UOPS", "40000"))


def bench_suite():
    if os.environ.get("REPRO_BENCH_FULL") == "1":
        from repro.trace import suite_names
        return suite_names()
    return list(REPRESENTATIVE_SUITE)


def bench_jobs() -> int:
    return int(os.environ.get("REPRO_BENCH_JOBS", "1"))


def bench_cache():
    value = os.environ.get("REPRO_BENCH_CACHE", "0")
    if value == "0":
        return False
    if value == "1":
        return True
    return value


def bench_policy():
    """ResiliencePolicy from REPRO_BENCH_*, or None when all are unset."""
    timeout = os.environ.get("REPRO_BENCH_TIMEOUT")
    keep_going = os.environ.get("REPRO_BENCH_KEEP_GOING") == "1"
    if timeout is None and not keep_going:
        return None
    from repro.experiments import ResiliencePolicy
    return ResiliencePolicy(
        cell_timeout=float(timeout) if timeout else None,
        fail_fast=not keep_going,
    )


def bench_execution():
    """The Execution the figure calls run under (REPRO_BENCH_* knobs)."""
    from repro.experiments import Execution
    return Execution(jobs=bench_jobs(), cache=bench_cache(),
                     policy=bench_policy())


@pytest.fixture
def suite():
    return bench_suite()


@pytest.fixture
def uops():
    return bench_uops()


@pytest.fixture
def jobs():
    return bench_jobs()


def run_once(benchmark, fn):
    """Run a figure generator exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def bench_trace(benchmark_name: str, num_uops=None):
    """Memoised trace for throughput benches.

    Delegates to :func:`repro.trace.fixture_cache.cached_trace`, the same
    bounded process-wide cache ``tests/conftest.py`` uses — when tests and
    benches run in one pytest invocation, identical parameters generate
    the trace once.
    """
    from repro.trace.fixture_cache import cached_trace

    return cached_trace(benchmark_name, num_uops or bench_uops())

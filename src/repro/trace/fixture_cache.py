"""Bounded, process-wide memo of generated traces for tests and benches.

``tests/conftest.py`` and ``benchmarks/conftest.py`` both need the same
thing: "give me the canonical small trace for these parameters, generating
it at most once per process".  Both previously grew private dict caches;
this module is the single shared implementation, with an LRU bound so a
long pytest session sweeping many (benchmark, length) combinations cannot
accumulate traces without limit.

Distinct from :class:`repro.experiments.runner.TraceCache` on purpose:
that cache is unbounded by design (suite sweeps revisit every benchmark
repeatedly and each worker holds only its shard), keys on the full
generation parameter set, and is part of the simulation engine's hot
path.  This one is a test fixture with an eviction policy.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Tuple

from .columns import Trace
from .dependence import DEFAULT_WINDOWS
from .generator import generate_trace

__all__ = ["cached_trace", "cache_info", "clear"]

#: Maximum distinct (benchmark, length, seeds, windows) traces retained.
#: Sized for the test suite's working set (a handful of named fixtures
#: plus property-test variations); eviction is least-recently-used.
MAX_ENTRIES = 16

_CACHE: "OrderedDict[Tuple, Trace]" = OrderedDict()
_hits = 0
_misses = 0


def cached_trace(
    benchmark: str = "perlbench1",
    num_uops: int = 20_000,
    program_seed: int = 0,
    trace_seed: int = 1,
    store_window: int = DEFAULT_WINDOWS[0],
    instr_window: int = DEFAULT_WINDOWS[1],
) -> Trace:
    """Generate (and memoise, LRU-bounded) a trace for tests/benches.

    Callers must not mutate the returned trace, its columns or its
    micro-ops — it is shared across every fixture user in the process.
    """
    global _hits, _misses
    key = (benchmark, num_uops, program_seed, trace_seed,
           store_window, instr_window)
    trace = _CACHE.get(key)
    if trace is not None:
        _hits += 1
        _CACHE.move_to_end(key)
        return trace
    _misses += 1
    trace = generate_trace(
        benchmark, num_uops,
        program_seed=program_seed, trace_seed=trace_seed,
        store_window=store_window, instr_window=instr_window,
    )
    _CACHE[key] = trace
    while len(_CACHE) > MAX_ENTRIES:
        _CACHE.popitem(last=False)
    return trace


def cache_info() -> dict:
    """Counters for tests asserting the sharing actually happens."""
    return {"entries": len(_CACHE), "hits": _hits, "misses": _misses,
            "max_entries": MAX_ENTRIES}


def clear() -> None:
    global _hits, _misses
    _CACHE.clear()
    _hits = 0
    _misses = 0

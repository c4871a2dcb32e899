"""Shared fixtures: small cached traces and predictor drivers."""

from __future__ import annotations

import pytest

from repro.predictors.base import ActualOutcome
from repro.trace.fixture_cache import cached_trace
from repro.trace.uop import OpClass


def small_trace(benchmark: str = "perlbench1", num_uops: int = 20_000,
                program_seed: int = 0, trace_seed: int = 1):
    """Small memoised trace — shared, LRU-bounded process-wide cache.

    Thin alias of :func:`repro.trace.fixture_cache.cached_trace` so tests
    and benches hit the same entries (generation happens once even when
    both suites run in one pytest invocation).
    """
    return cached_trace(benchmark, num_uops,
                        program_seed=program_seed, trace_seed=trace_seed)


@pytest.fixture
def perlbench_trace():
    return small_trace("perlbench1", 20_000)


@pytest.fixture
def lbm_trace():
    return small_trace("lbm", 15_000)


@pytest.fixture
def exchange_trace():
    return small_trace("exchange2", 15_000)


def drive_predictor(predictor, trace, collect=False):
    """Replay a trace through a predictor the way the harness does.

    Returns the list of (uop, prediction, actual) triples when ``collect``
    is true, else the count of loads processed.
    """
    triples = []
    branch_count = 0
    store_branch = {}
    store_pc = {}
    loads = 0
    for uop in trace:
        if uop.op is OpClass.BRANCH_COND:
            predictor.on_branch(uop.pc, uop.taken)
            branch_count += 1
        elif uop.op is OpClass.BRANCH_INDIRECT:
            predictor.on_indirect(uop.pc, uop.target)
            branch_count += 1
        elif uop.is_store:
            predictor.on_store(uop.seq, uop.pc)
            store_branch[uop.seq] = branch_count
            store_pc[uop.seq] = uop.pc
        elif uop.is_load:
            prediction = predictor.predict(uop)
            bb = 0
            spc = None
            if uop.has_dependence:
                bb = branch_count - store_branch.get(uop.dep_store_seq,
                                                     branch_count)
                spc = store_pc.get(uop.dep_store_seq)
            actual = ActualOutcome.from_uop(uop, branches_between=bb,
                                            store_pc=spc)
            predictor.train(uop, prediction, actual)
            loads += 1
            if collect:
                triples.append((uop, prediction, actual))
    return triples if collect else loads

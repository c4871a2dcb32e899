"""Differential property tests for the two key paths of keyed predictors.

Every history-keyed predictor computes its table keys one of two ways:
the *reference* path hashes the load or branch PC with the incrementally
folded history registers, updated by every branch event; the *primed*
path (``prime`` / ``finish``, used by the batched engine) computes a
whole run's keys at once from the closed-form fold series.  The claims
checked here, over hypothesis-chosen branch streams and load PCs:

* the primed keys equal the reference keys at every load (or branch);
* after ``finish()``, the history state — ``GlobalHistory`` bits and
  folded registers, ``PathHistory`` — equals the state reached by pushing
  the same stream one event at a time.

Histories start from a hypothesis-chosen prefix pushed before priming, so
the plans begin from non-trivial register state.  All tests run
``derandomize=True``: the tier is deterministic run to run.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.branch.ittage import ITTAGE
from repro.branch.tage import TAGEBranchPredictor
from repro.common.foldplan import BranchStream
from repro.common.history import GlobalHistory
from repro.experiments.suite import make_predictor
from repro.trace.uop import MicroOp, OpClass

COND, INDIRECT, LOAD = 0, 1, 2

pc_st = st.integers(min_value=0x400000, max_value=0x40FFFF)
target_st = st.integers(min_value=0, max_value=(1 << 40) - 1)
branch_st = st.one_of(
    st.tuples(st.just(COND), pc_st, st.integers(0, 1)),
    st.tuples(st.just(INDIRECT), pc_st, target_st),
)
event_st = st.one_of(branch_st, st.tuples(st.just(LOAD), pc_st, st.just(0)))
prefix_st = st.lists(branch_st, max_size=40)
events_st = st.lists(event_st, max_size=160)

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


def _stream(events):
    """The run's branch stream plus per-load PCs and preceding counts."""
    branches = [e for e in events if e[0] != LOAD]
    stream = BranchStream(
        np.array([kind for kind, _, _ in branches], dtype=np.int64),
        np.array([pc for _, pc, _ in branches], dtype=np.int64),
        np.array([val for _, _, val in branches], dtype=np.int64),
    )
    load_pc, cond_before, ind_before = [], [], []
    conds = inds = 0
    for kind, pc, _ in events:
        if kind == COND:
            conds += 1
        elif kind == INDIRECT:
            inds += 1
        else:
            load_pc.append(pc)
            cond_before.append(conds)
            ind_before.append(inds)
    as_array = lambda values: np.array(values, dtype=np.int64)  # noqa: E731
    return stream, as_array(load_pc), as_array(cond_before), \
        as_array(ind_before)


def _feed(predictor, kind, pc, val):
    if kind == COND:
        predictor.on_branch(pc, bool(val))
    else:
        predictor.on_indirect(pc, val)


def _history(ghist: GlobalHistory):
    return (list(ghist._bits),
            {key: reg.value for key, reg in ghist._folds.items()})


def _load(seq, pc):
    return MicroOp(seq, pc, OpClass.LOAD, address=0x1000, size=8)


@pytest.mark.parametrize("name", ["mascot", "mascot-opt", "mascot-opt-tag2",
                                  "phast", "nosq"])
class TestMDPredictorKeys:
    @given(prefix=prefix_st, events=events_st)
    @SETTINGS
    def test_primed_keys_and_history_match_reference(self, name, prefix,
                                                     events):
        reference = make_predictor(name)
        primed = make_predictor(name)
        for predictor in (reference, primed):
            for event in prefix:
                _feed(predictor, *event)
        primed.prime(*_stream(events))
        for seq, (kind, pc, val) in enumerate(events):
            if kind == LOAD:
                uop = _load(seq, pc)
                assert primed.lookup(uop)[4] == reference.lookup(uop)[4]
            else:
                _feed(reference, kind, pc, val)
                _feed(primed, kind, pc, val)
        primed.finish()
        if name == "nosq":
            assert _history(primed._ghist) == _history(reference._ghist)
        else:
            assert (_history(primed.bank.ghist)
                    == _history(reference.bank.ghist))
            assert primed.bank.path.value == reference.bank.path.value


@pytest.mark.parametrize("use_ittage", [True, False])
class TestTageKeys:
    @given(prefix=prefix_st, events=st.lists(branch_st, max_size=160))
    @SETTINGS
    def test_primed_keys_and_history_match_reference(self, use_ittage,
                                                     prefix, events):
        reference = TAGEBranchPredictor(use_ittage=use_ittage)
        primed = TAGEBranchPredictor(use_ittage=use_ittage)

        def feed(predictor, kind, pc, val):
            if kind == COND:
                predictor.predict_and_train(pc, bool(val))
            else:
                predictor.observe_indirect(pc, val)

        for predictor in (reference, primed):
            for event in prefix:
                feed(predictor, *event)
        primed.prime(_stream(events)[0])
        for kind, pc, val in events:
            feed(reference, kind, pc, val)
            feed(primed, kind, pc, val)
            if kind == COND:
                assert (tuple(primed._indices), tuple(primed._tags),
                        primed._base_idx) == (tuple(reference._indices),
                                              tuple(reference._tags),
                                              reference._base_idx)
        primed.finish()
        assert _history(primed._ghist) == _history(reference._ghist)
        assert primed.stats == reference.stats
        if use_ittage:
            assert (_history(primed._ittage._ghist)
                    == _history(reference._ittage._ghist))


class TestIttageKeys:
    @given(prefix=st.lists(target_st, max_size=20),
           events=st.lists(st.tuples(pc_st, target_st), max_size=120))
    @SETTINGS
    def test_primed_keys_and_history_match_reference(self, prefix, events):
        reference = ITTAGE()
        primed = ITTAGE()
        for predictor in (reference, primed):
            for target in prefix:
                predictor.on_outcome(target)
        primed.prime(_stream([(INDIRECT, pc, target)
                              for pc, target in events])[0])
        rows = primed._rows
        for pc, target in events:
            assert next(rows) == reference._keys(pc)
            reference.on_outcome(target)
            primed.on_outcome(target)
        primed.finish()
        assert _history(primed._ghist) == _history(reference._ghist)

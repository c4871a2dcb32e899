"""Primed key rows: blocked materialisation and the consumed-rows check.

``prime`` stores a run's keys as compact int32 arrays and hands them out
one row per load (or branch) through :func:`primed_rows`, a block at a
time.  A run that consumes fewer rows than were primed has been fed a
different event stream than its prime saw — every later lookup would
read the wrong keys — so ``finish`` raises instead of dropping the rest.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.branch.ittage import ITTAGE
from repro.branch.tage import TAGEBranchPredictor
from repro.common.foldplan import (
    MAX_FOLD_WIDTH,
    BranchStream,
    FoldPlan,
    prime_inputs,
    primed_rows,
)
from repro.common.history import GlobalHistory
from repro.experiments.suite import PREDICTORS, make_predictor
from repro.trace.columns import BYPASS_CODES, OP_CODES
from repro.trace.uop import BypassClass, OpClass

PCS = (0x400010, 0x400024, 0x400038, 0x40004C)

#: ``lookup``'s ground truth for a load without a dependence.
NO_DEP = (0, None, BYPASS_CODES[BypassClass.NONE])


def _stream(kinds):
    """A branch stream of the given kinds (0 conditional, 1 indirect)."""
    n = len(kinds)
    return BranchStream(
        np.array(kinds, dtype=np.int64),
        np.array([PCS[i % len(PCS)] for i in range(n)], dtype=np.int64),
        np.array([(i * 0x1234567) if kind else i % 2
                  for i, kind in enumerate(kinds)], dtype=np.int64),
    )


class TestPrimedRows:
    @pytest.mark.parametrize("block", [1, 2, 3, 7, 1024])
    def test_blocks_match_whole_rows(self, block):
        rng = np.random.default_rng(0)
        wide = rng.integers(0, 1 << 20, size=(3, 10)).astype(np.int32)
        flat = rng.integers(0, 1 << 20, size=10).astype(np.int32)
        want = list(zip(zip(*wide.tolist()), flat.tolist()))
        got = list(primed_rows(wide, flat, block=block))
        assert got == want
        assert all(type(v) is int for row in got for v in row[0])

    def test_empty(self):
        assert list(primed_rows(np.zeros((4, 0), dtype=np.int32))) == []


class TestPrimeInputs:
    def test_counts_branches_before_each_load(self):
        ops = [OpClass.BRANCH_COND, OpClass.LOAD, OpClass.BRANCH_INDIRECT,
               OpClass.ALU, OpClass.LOAD, OpClass.STORE, OpClass.BRANCH_COND,
               OpClass.LOAD]
        op = np.array([OP_CODES[o] for o in ops], dtype=np.int8)
        pc = np.arange(len(ops), dtype=np.int64) * 4 + 0x400000
        taken = np.array([1, 0, 0, 0, 0, 0, 0, 0], dtype=np.bool_)
        target = np.array([0, 0, 0xABC, 0, 0, 0, 0, 0], dtype=np.int64)
        stream, load_pc, cond_before, ind_before = prime_inputs(
            op, pc, taken, target)
        assert stream.kind.tolist() == [0, 1, 0]
        assert stream.pc.tolist() == [pc[0], pc[2], pc[6]]
        assert stream.val.tolist() == [1, 0xABC, 0]
        assert load_pc.tolist() == [pc[1], pc[4], pc[7]]
        assert cond_before.tolist() == [1, 1, 2]
        assert ind_before.tolist() == [0, 1, 1]


class TestFoldWidth:
    def test_every_registered_fold_fits_int32(self):
        for name in PREDICTORS:
            predictor = make_predictor(name)
            for attr in ("bank", "_ghist"):
                owner = getattr(predictor, attr, None)
                ghist = getattr(owner, "ghist", owner)
                if isinstance(ghist, GlobalHistory):
                    widths = [w for _, w in ghist._folds]
                    assert max(widths) <= MAX_FOLD_WIDTH, name

    def test_wider_fold_is_refused(self):
        ghist = GlobalHistory(64)
        ghist.attach_fold(40, MAX_FOLD_WIDTH + 1)
        with pytest.raises(ValueError, match="int32"):
            FoldPlan.for_history(ghist, np.zeros(4, dtype=np.int64))


class TestUnconsumedRowsRaise:
    @pytest.mark.parametrize("name", ["mascot", "phast", "nosq"])
    def test_md_predictor_with_one_extra_load(self, name):
        predictor = make_predictor(name)
        stream = _stream([0, 1, 0])
        load_pc = np.array([PCS[0], PCS[1], PCS[2]], dtype=np.int64)
        predictor.prime(stream, load_pc, np.array([0, 1, 2]),
                        np.array([0, 1, 1]))
        for seq, pc in enumerate(load_pc[:-1].tolist()):
            predictor.lookup(seq, pc, NO_DEP)
        with pytest.raises(RuntimeError,
                           match=rf"{name}: 2 of 3 primed rows consumed, "
                                 "1 left over"):
            predictor.finish()
        owner = predictor if name == "nosq" else predictor.bank
        assert owner._rows is None and owner._plan is None
        predictor.finish()  # primed state is gone: a second finish is a no-op

    def test_fully_consumed_run_finishes_quietly(self):
        predictor = make_predictor("mascot")
        predictor.prime(_stream([0]), np.array([PCS[0]], dtype=np.int64),
                        np.array([1]), np.array([0]))
        predictor.lookup(0, PCS[0], NO_DEP)
        predictor.finish()

    def test_tage_with_one_extra_branch(self):
        tage = TAGEBranchPredictor(use_ittage=False)
        tage.prime(_stream([0, 0, 0]))
        tage.predict_and_train(PCS[0], True)
        tage.predict_and_train(PCS[1], False)
        with pytest.raises(RuntimeError,
                           match="TAGEBranchPredictor: 2 of 3 primed rows"):
            tage.finish()
        assert tage._rows is None and tage._plan is None

    def test_ittage_with_one_extra_indirect(self):
        ittage = ITTAGE()
        ittage.prime(_stream([1, 0, 1]))
        ittage.predict_and_train(PCS[0], 0x1234)
        with pytest.raises(RuntimeError,
                           match="ITTAGE: 1 of 2 primed rows"):
            ittage.finish()
        assert ittage._rows is None and ittage._plan is None

    def test_tage_writes_back_before_its_ittage_raises(self):
        tage = TAGEBranchPredictor()
        tage.prime(_stream([0, 1]))
        tage.predict_and_train(PCS[0], True)
        with pytest.raises(RuntimeError, match="ITTAGE"):
            tage.finish()
        assert tage._plan is None and tage._ittage._plan is None

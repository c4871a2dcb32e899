"""Oracle predictors: perfect MDP and perfect MDP+SMB.

Every IPC figure in the paper is normalised to a **perfect MDP** predictor
that never bypasses; Fig. 12 additionally uses a **perfect MDP+SMB**
predictor as the performance ceiling.  These oracles read the trace's
ground-truth annotations — the one place in the package allowed to do so.

Perfect MDP is "inherently conservative" (Sec. VI-A): it stalls a dependent
load until the conflicting store has resolved and then releases it, costing
at least one cycle relative to an aggressive (and lucky) speculation.  The
timing model applies that +1-cycle serialisation to ``conservative``
predictions, which reproduces the paper's observation that real predictors
occasionally beat the oracle (gcc4, gcc5, mcf, nab).
"""

from __future__ import annotations

from ..trace.columns import BYPASS_BY_CODE
from ..trace.uop import OFFSET_BYPASSABLE, SAME_ADDRESS_BYPASSABLE
from .base import KIND_MDP, KIND_SMB, NO_PREDICTION, Lookup, MDPredictor, Truth

__all__ = ["PerfectMDP", "PerfectMDPSMB"]


class PerfectMDP(MDPredictor):
    """Oracle memory-dependence predictor; never predicts SMB."""

    name = "perfect-mdp"

    #: Grants this class (and subclasses) the right to read ground-truth
    #: trace annotations at predict time; checked by ``repro lint``.
    is_oracle = True

    #: Marks predictions as oracle-conservative for the timing model.
    conservative = True

    def lookup(self, seq: int, pc: int, truth: Truth) -> Lookup:
        distance, store_seq, _ = truth
        if distance > 0:
            return KIND_MDP, distance, store_seq, None, None, None
        return NO_PREDICTION

    def update(self, *args: object) -> None:
        """Oracles do not learn."""


class PerfectMDPSMB(PerfectMDP):
    """Oracle MDP plus bypassing of every hardware-bypassable dependence.

    ``offset_bypass`` mirrors the MASCOT extension: when True the oracle
    also bypasses OFFSET-class dependencies (shift-capable hardware).
    """

    name = "perfect-mdp-smb"

    def __init__(self, offset_bypass: bool = False):
        self.offset_bypass = offset_bypass
        # Bypassable flag per bypass code.
        self._bypassable = tuple(bc in self.bypassable_classes
                                 for bc in BYPASS_BY_CODE)

    def lookup(self, seq: int, pc: int, truth: Truth) -> Lookup:
        distance, store_seq, bypass_code = truth
        if distance > 0 and self._bypassable[bypass_code]:
            return KIND_SMB, distance, store_seq, None, None, None
        return super().lookup(seq, pc, truth)

    @property
    def supports_smb(self) -> bool:
        return True

    @property
    def bypassable_classes(self) -> frozenset:
        if self.offset_bypass:
            return OFFSET_BYPASSABLE
        return SAME_ADDRESS_BYPASSABLE

"""Interfaces shared by every memory-dependence / bypass predictor.

The harness drives predictors through a narrow protocol:

* :meth:`MDPredictor.predict` is called for every dynamic load, in program
  order, at "decode time" — before the load's dependence is known.
* :meth:`MDPredictor.train` is called for the same load at "commit time"
  with the ground-truth :class:`ActualOutcome`.
* :meth:`MDPredictor.predict_train` fuses the two for harnesses that
  classify and train each load immediately (the batched engine and the
  prediction-only replay), with predictions and outcomes as plain ints.
* :meth:`MDPredictor.on_branch` / :meth:`MDPredictor.on_indirect` feed the
  architectural branch stream (the predictors own their global history).
* :meth:`MDPredictor.on_store` announces dispatched stores (Store Sets and
  NoSQ track last-fetched-store state; TAGE-likes ignore it).

All three load entry points are composed from one pair of hooks each
predictor implements — :meth:`MDPredictor.lookup` and
:meth:`MDPredictor.update` — so every predictor's decision logic exists
exactly once.

Predictions name the conflicting store by *store distance* (1 = youngest
older store, matching MASCOT's store-queue-offset encoding) and/or by the
resolved dynamic sequence number when the predictor tracks stores directly
(Store Sets).
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Tuple

from ..trace.columns import BYPASS_BY_CODE, BYPASS_CODES
from ..trace.uop import SAME_ADDRESS_BYPASSABLE, BypassClass, MicroOp

if TYPE_CHECKING:
    import numpy as np

    from ..common.foldplan import BranchStream

__all__ = ["PredictionKind", "Prediction", "ActualOutcome", "MDPredictor",
           "TelemetrySink", "KIND_NO_DEP", "KIND_MDP", "KIND_SMB",
           "PRED_KIND_BY_CODE", "KIND_CODES", "NO_PREDICTION"]


class TelemetrySink:
    """Observation protocol for predictor-internal events.

    Predictors report to an attached sink from their hot paths; every
    call site is guarded by ``if sink is not None``, so an unattached
    predictor (the default) pays a single attribute read per event at
    most.  The concrete counting sink lives in
    :mod:`repro.obs.telemetry`; this base class doubles as the no-op
    implementation so partial sinks can override only what they need.

    Table numbering follows each predictor's own convention; TAGE-likes
    use ``len(tables)`` for the base (no-match) slot, mirroring their
    ``predictions_per_table`` counters.
    """

    def lookup(self, table: int) -> None:
        """A prediction was served by ``table`` (provider hit)."""

    def allocation(self, table: int, distance: int) -> None:
        """An entry was written into ``table``; ``distance == 0`` marks a
        MASCOT-style non-dependence entry."""

    def eviction(self, table: int) -> None:
        """An allocation displaced a live entry in ``table``."""

    def confidence(self, table: int, event: str) -> None:
        """A confidence/usefulness counter moved (``up``/``down``/
        ``reset``/``bypass_up``/``bypass_reset``)."""

    def event(self, name: str) -> None:
        """A named predictor-specific event (e.g. ``allocation_failure``,
        ``cyclic_clear``, ``set_merge``)."""


class PredictionKind(enum.Enum):
    """The three-way prediction of Fig. 5 (left-hand side)."""

    NO_DEP = "no_dep"  # load may issue as soon as its address is known
    MDP = "mdp"        # wait for the named prior store, then issue
    SMB = "smb"        # obtain the value from the named prior store directly


#: Integer prediction-kind codes of the predictor hook wire format.
KIND_NO_DEP = 0
KIND_MDP = 1
KIND_SMB = 2
PRED_KIND_BY_CODE = (PredictionKind.NO_DEP, PredictionKind.MDP,
                     PredictionKind.SMB)
KIND_CODES = {kind: code for code, kind in enumerate(PRED_KIND_BY_CODE)}

#: :meth:`MDPredictor.lookup` result: (kind, distance, store_seq, source,
#: keys, entry).
Lookup = Tuple[int, int, Optional[int], Optional[int], Any, Any]

#: :meth:`MDPredictor.predict_train` result: (kind, store_seq, distance,
#: conservative, outcome code).
PredictTrain = Tuple[int, Optional[int], int, bool, int]

#: The base prediction of a stateless lookup: no dependence, no keys.
NO_PREDICTION: Lookup = (KIND_NO_DEP, 0, None, None, None, None)


@dataclass
class Prediction:
    """One prediction for one dynamic load.

    ``distance``/``store_seq`` identify the predicted store (either may be
    unset depending on the predictor family).  ``source_table`` is the table
    index a TAGE-like predictor matched in (None = base predictor) — used by
    allocation policies and the Fig. 13 usage statistics.  ``meta`` carries
    predictor-private state from predict-time to train-time (e.g. the
    per-table index/tag keys computed under the prediction-time history).
    """

    kind: PredictionKind
    distance: int = 0
    store_seq: Optional[int] = None
    source_table: Optional[int] = None
    meta: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind is PredictionKind.NO_DEP:
            if self.distance != 0:
                raise ValueError("NO_DEP prediction with non-zero distance")
        elif self.distance <= 0 and self.store_seq is None:
            raise ValueError(f"{self.kind} prediction names no store")

    @property
    def predicts_dependence(self) -> bool:
        return self.kind is not PredictionKind.NO_DEP


@dataclass(frozen=True)
class ActualOutcome:
    """Ground truth for a committed load, as recovered from the LQ/SB.

    ``branches_between`` counts dynamic branches between the conflicting
    store and the load (PHAST's allocation heuristic keys on it); it is 0
    when there is no dependence.
    """

    distance: int
    store_seq: Optional[int]
    bypass: BypassClass
    branches_between: int = 0
    #: PC of the conflicting store (Store Sets assigns SSIT entries by it).
    store_pc: Optional[int] = None

    def __post_init__(self) -> None:
        has_dep = self.distance > 0
        if has_dep != self.bypass.is_dependence:
            raise ValueError("distance and bypass class disagree")
        if has_dep and self.store_seq is None:
            raise ValueError("dependence without a store sequence number")

    @classmethod
    def from_uop(cls, uop: MicroOp, branches_between: int = 0,
                 store_pc: Optional[int] = None) -> "ActualOutcome":
        """Build the outcome from an annotated trace load."""
        if not uop.is_load:
            raise ValueError(f"uop {uop.seq} is not a load")
        return cls(
            distance=uop.store_distance,
            store_seq=uop.dep_store_seq,
            bypass=uop.bypass,
            branches_between=branches_between if uop.has_dependence else 0,
            store_pc=store_pc if uop.has_dependence else None,
        )

    @property
    def has_dependence(self) -> bool:
        return self.distance > 0


class MDPredictor(abc.ABC):
    """Abstract memory-dependence (and optionally SMB) predictor.

    A predictor implements its decision logic exactly once, as two
    int-coded halves:

    * :meth:`lookup` — the predict-time half.  It sees only the load's PC
      (and ``seq`` for bookkeeping), computes the table keys, finds the
      matching state and returns ``(kind, distance, store_seq, source,
      keys, entry)``: a kind code (:data:`KIND_NO_DEP` / :data:`KIND_MDP`
      / :data:`KIND_SMB`), the named store, the serving table (None for
      the base prediction) and two predictor-private values — the keys
      that address the predictor's state and the matched entry.
    * :meth:`update` — the commit-time half.  It receives those values
      plus the ground truth as plain ints and applies every counter
      change, allocation and replacement.

    The base class composes the halves in three ways, and no predictor
    overrides them: :meth:`predict_train` (the fused per-load step of the
    batched engine and of :func:`repro.experiments.runner.run_prediction_only`),
    and the object API :meth:`predict` / :meth:`train` used by the scalar
    :class:`~repro.core.pipeline.Pipeline`, tests and examples.  ``train``
    re-finds the entry from the keys carried in the prediction's ``meta``
    (:meth:`_reacquire`), as hardware re-indexes at commit; the fused path
    reuses the predict-time entry, which is the same object because nothing
    predictor-visible happens between a load's predict and its train.

    The batched engine additionally calls :meth:`prime` before a run (with
    the whole architectural branch stream, so keyed predictors can
    precompute every load's keys) and :meth:`finish` after it (to write the
    history registers back and drop the primed rows).
    """

    #: Human-readable name used in figures and reports.
    name: str = "predictor"

    #: Attached observation sink, or None (the default: zero overhead
    #: beyond the guard reads).  Set via :meth:`attach_telemetry`.
    telemetry: Optional[TelemetrySink] = None

    #: Whether this predictor is an oracle that may read the trace's
    #: ground-truth annotations at predict time.  ``repro lint``'s
    #: oracle-leak rule keys on this marker: any :meth:`lookup` path of a
    #: class without it that reads ``uop.bypass`` / ``uop.store_distance``
    #: / ``uop.dep_store_seq`` / ``uop.has_dependence`` fails CI.
    is_oracle: bool = False

    #: Marks every prediction as oracle-conservative for the timing model
    #: (the load is released one cycle after its store resolves).
    conservative: bool = False

    @abc.abstractmethod
    def lookup(self, uop: MicroOp) -> Lookup:
        """Predict-time half: ``(kind, distance, store_seq, source, keys,
        entry)`` for the given dynamic load.

        Implementations must only read ``uop.pc`` (and ``uop.seq`` for
        bookkeeping); the ground-truth annotation fields are reserved for
        the oracle predictors (``is_oracle = True``), and the
        ``repro lint`` static checker enforces this machine-checkably.
        """

    @abc.abstractmethod
    def update(self, keys: Any, source: Optional[int], entry: Any,
               kind: int, distance: int, store_seq: Optional[int],
               a_dist: int, a_seq: Optional[int], bypass_code: int,
               branches_between: int, store_pc: Optional[int]) -> None:
        """Commit-time half: train on the resolved dependence.

        ``keys``/``source``/``entry`` and the prediction come from
        :meth:`lookup`; ``a_dist``/``a_seq`` name the actual conflicting
        store (0/None without a dependence), ``bypass_code`` indexes
        :data:`~repro.trace.columns.BYPASS_BY_CODE`, and
        ``branches_between``/``store_pc`` are the harness's training hints
        (see :class:`ActualOutcome`).
        """

    def _reacquire(self, keys: Any, source: Optional[int]) -> Any:
        """Re-find the predict-time ``entry`` from ``keys`` at commit.

        Stateless or entry-free predictors keep the default (no entry).
        """
        return None

    # -- composed protocol -------------------------------------------------

    def predict_train(self, uop: MicroOp, branches_between: int,
                      store_pc: Optional[int], a_dist: int,
                      bypass_code: int) -> PredictTrain:
        """Predict, classify and train one load; all values int-coded.

        Returns ``(kind, store_seq, distance, conservative, outcome)``,
        where ``outcome`` indexes
        :data:`repro.analysis.accuracy.OUTCOME_BY_CODE`.
        """
        kind, distance, store_seq, source, keys, entry = self.lookup(uop)
        a_seq = uop.dep_store_seq
        self.update(keys, source, entry, kind, distance, store_seq,
                    a_dist, a_seq, bypass_code, branches_between, store_pc)
        classify_code, bypassable = self._classifier
        return (kind, store_seq, distance, self.conservative,
                classify_code(kind, distance, store_seq, a_dist, a_seq,
                              bypassable[bypass_code]))

    def predict(self, uop: MicroOp) -> Prediction:
        """Predict the given dynamic load (object API over :meth:`lookup`)."""
        kind, distance, store_seq, source, keys, _ = self.lookup(uop)
        meta: Dict[str, Any] = {"keys": keys}
        if self.conservative:
            meta["conservative"] = True
        return Prediction(PRED_KIND_BY_CODE[kind], distance=distance,
                          store_seq=store_seq, source_table=source,
                          meta=meta)

    def train(self, uop: MicroOp, prediction: Prediction,
              actual: ActualOutcome) -> None:
        """Commit-time update with the resolved dependence information."""
        keys = prediction.meta["keys"]
        source = prediction.source_table
        self.update(keys, source, self._reacquire(keys, source),
                    KIND_CODES[prediction.kind], prediction.distance,
                    prediction.store_seq, actual.distance, actual.store_seq,
                    BYPASS_CODES[actual.bypass], actual.branches_between,
                    actual.store_pc)

    @cached_property
    def _classifier(self) -> Tuple[Callable[..., int], Tuple[bool, ...]]:
        """The Fig. 5 classifier and this predictor's bypassable-class
        membership per bypass code (imported late: the analysis package
        imports this module)."""
        from ..analysis.accuracy import classify_code

        bypassable = self.bypassable_classes
        return classify_code, tuple(bc in bypassable for bc in BYPASS_BY_CODE)

    # -- event hooks (default: ignore) ---------------------------------------

    def on_branch(self, pc: int, taken: bool) -> None:
        """Architectural conditional-branch outcome (history update)."""

    def on_indirect(self, pc: int, target: int) -> None:
        """Architectural indirect-branch target (history update)."""

    def on_store(self, uop: MicroOp) -> Optional[int]:
        """A store was dispatched (Store Sets / NoSQ bookkeeping).

        May return the sequence number of an older store this one must
        issue behind: Store Sets serialises all stores within a store set
        through the LFST (Chrysos & Emer), which is exactly the
        over-serialisation cost the paper attributes to it on large
        windows.  ``None`` (the default) imposes no ordering.
        """
        return None

    # -- batched engine --------------------------------------------------------

    def prime(self, stream: "BranchStream", load_pc: "np.ndarray",
              cond_before: "np.ndarray", ind_before: "np.ndarray") -> None:
        """Precompute a whole run's history-dependent keys (optional).

        ``stream`` is the run's architectural branch stream, ``load_pc``
        the PCs of its loads in order, ``cond_before`` / ``ind_before`` the
        number of conditional / indirect branch events preceding each
        load.  Until :meth:`finish`, :meth:`lookup` takes its keys from
        the primed rows — one per load, in order — and the history hooks
        leave the registers alone.  The default keeps the reference path.
        """

    def finish(self) -> None:
        """End a primed run: write the final history state back and drop
        the primed rows (a no-op when :meth:`prime` was not called or
        declined)."""

    # -- observability ---------------------------------------------------------

    def attach_telemetry(self, sink: TelemetrySink) -> TelemetrySink:
        """Attach an observation sink; returns it for chaining.

        Attaching is the opt-in: without it every hook site reduces to a
        ``None`` check.  Pass ``None``-able sinks through
        :attr:`telemetry` directly only in tests.
        """
        self.telemetry = sink
        return sink

    # -- introspection ---------------------------------------------------------

    @property
    def storage_bits(self) -> int:
        """Total predictor state in bits (Table II accounting)."""
        return 0

    @property
    def storage_kib(self) -> float:
        return self.storage_bits / 8 / 1024

    @property
    def supports_smb(self) -> bool:
        """Whether this predictor ever emits SMB predictions."""
        return False

    @property
    def bypassable_classes(self) -> frozenset:
        """Overlap classes this predictor's bypass datapath can deliver.

        The harness verifies SMB predictions against *this* set, so a
        predictor designed for shift-capable hardware (NoSQ's partial-word
        bypassing, MASCOT's offset extension) is judged against its own
        datapath, not the default same-address one.
        """
        return SAME_ADDRESS_BYPASSABLE

    def reset(self) -> None:
        """Drop all learned state (optional; default is a no-op)."""

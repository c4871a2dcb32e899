"""Trace validation: check every invariant a consumer relies on.

Traces can come from the generator (always valid), from disk
(:mod:`repro.trace.stream`), or from user code building custom workloads.
The pipeline and the predictors index into the trace by sequence number and
trust the ground-truth annotations; a malformed trace fails *obscurely*
(wrong statistics) rather than loudly.  :func:`validate_trace` fails loudly
instead, checking:

* sequence numbers are contiguous from 0;
* dataflow sources (``srcs``, ``addr_src``) reference earlier
  value-producing micro-ops;
* memory ops have positive sizes and branch ops carry outcomes;
* every dependence annotation is real: the referenced store exists, is
  older, overlaps the load's bytes, the bypass class matches the geometry
  (Fig. 1), the distance counts intervening stores exactly, and no younger
  store also overlaps (the annotation must be the *youngest* conflict);
* annotated dependencies respect the declared in-flight windows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from .dependence import classify_overlap
from .uop import MicroOp, OpClass

__all__ = ["TraceValidationError", "ValidationReport", "validate_trace"]

#: Op classes that produce a register value consumable by later ops.
_PRODUCERS = frozenset({
    OpClass.ALU, OpClass.MUL, OpClass.DIV, OpClass.FP, OpClass.LOAD,
})


class TraceValidationError(ValueError):
    """Raised by :func:`validate_trace` in strict mode."""


@dataclass
class ValidationReport:
    """Outcome of a validation pass."""

    uops: int = 0
    loads: int = 0
    stores: int = 0
    dependent_loads: int = 0
    errors: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    def add(self, seq: int, message: str) -> None:
        self.errors.append(f"uop {seq}: {message}")

    def __repr__(self) -> str:
        status = "ok" if self.ok else f"{len(self.errors)} errors"
        return (
            f"ValidationReport({status}, uops={self.uops}, "
            f"loads={self.loads}, stores={self.stores})"
        )


def validate_trace(
    trace: Sequence[MicroOp],
    store_window: int = 114,
    instr_window: int = 512,
    strict: bool = True,
    max_errors: int = 50,
) -> ValidationReport:
    """Check all trace invariants; see the module docstring.

    In strict mode (default) the first report with errors raises
    :class:`TraceValidationError`; otherwise the report is returned with up
    to ``max_errors`` collected messages.
    """
    report = ValidationReport(uops=len(trace))
    producers = set()
    # store seq -> (store number, address, size); store_count counts all
    # dynamic stores so distances can be recomputed exactly.
    stores: Dict[int, tuple] = {}
    store_order: List[int] = []

    for position, uop in enumerate(trace):
        if len(report.errors) >= max_errors:
            break
        if uop.seq != position:
            report.add(uop.seq, f"expected sequence number {position}")
            break

        for src in uop.srcs:
            if not (0 <= src < uop.seq):
                report.add(uop.seq, f"source {src} is not an earlier uop")
            elif src not in producers:
                report.add(uop.seq, f"source {src} is not a value producer")
        if uop.addr_src is not None:
            if not (0 <= uop.addr_src < uop.seq):
                report.add(uop.seq, f"addr_src {uop.addr_src} out of range")
            elif uop.addr_src not in producers:
                report.add(uop.seq,
                           f"addr_src {uop.addr_src} is not a producer")

        if uop.op.is_memory and uop.size <= 0:
            report.add(uop.seq, "memory op with non-positive size")

        if uop.is_store:
            report.stores += 1
            stores[uop.seq] = (len(store_order), uop.address, uop.size)
            store_order.append(uop.seq)
        elif uop.is_load:
            report.loads += 1
            _validate_load(uop, stores, store_order, store_window,
                           instr_window, report)
            if uop.has_dependence:
                report.dependent_loads += 1

        if uop.op in _PRODUCERS:
            producers.add(uop.seq)

    if strict and not report.ok:
        raise TraceValidationError(
            f"{len(report.errors)} invariant violations; first: "
            f"{report.errors[0]}"
        )
    return report


def _validate_load(
    uop: MicroOp,
    stores: Dict[int, tuple],
    store_order: List[int],
    store_window: int,
    instr_window: int,
    report: ValidationReport,
) -> None:
    if not uop.has_dependence:
        # The load claims independence; verify no in-window store overlaps.
        for store_seq in reversed(store_order[-store_window:]):
            if uop.seq - store_seq > instr_window:
                break
            _, addr, size = stores[store_seq]
            if classify_overlap(addr, size, uop.address,
                                uop.size).is_dependence:
                report.add(
                    uop.seq,
                    f"annotated independent but store {store_seq} overlaps",
                )
                break
        return

    dep = uop.dep_store_seq
    if dep not in stores:
        report.add(uop.seq, f"dep_store_seq {dep} is not a store")
        return
    if dep >= uop.seq:
        report.add(uop.seq, f"dep_store_seq {dep} is not older")
        return
    store_number, addr, size = stores[dep]

    cls = classify_overlap(addr, size, uop.address, uop.size)
    if cls is not uop.bypass:
        report.add(
            uop.seq,
            f"bypass class {uop.bypass.value} does not match geometry "
            f"({cls.value})",
        )

    expected_distance = len(store_order) - store_number
    if uop.store_distance != expected_distance:
        report.add(
            uop.seq,
            f"store_distance {uop.store_distance} != actual "
            f"{expected_distance}",
        )

    if expected_distance > store_window:
        report.add(uop.seq, "dependence beyond the store window")
    if uop.seq - dep > instr_window:
        report.add(uop.seq, "dependence beyond the instruction window")

    # The annotated store must be the youngest overlapping one.
    for younger_seq in reversed(store_order):
        if younger_seq <= dep:
            break
        _, y_addr, y_size = stores[younger_seq]
        if classify_overlap(y_addr, y_size, uop.address,
                            uop.size).is_dependence:
            report.add(
                uop.seq,
                f"store {younger_seq} is a younger overlapping store than "
                f"the annotated {dep}",
            )
            break

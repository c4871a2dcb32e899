"""Trace serialization: save and reload annotated micro-op streams.

Generating a trace is deterministic but not free; sweeps that re-simulate
the same benchmark under many predictors can serialise the trace once and
replay it from disk (or ship a trace to another machine, as one would with
SimPoint traces).  The format is a compact line-oriented text format with a
header — easy to inspect, diff and version.

Format (one micro-op per line, space-separated)::

    #repro-trace v1 <benchmark> <num_uops>
    <seq> <op> <pc> <srcs|-> <addr_src|-> <taken> <target> <address> <size> \
        <store_distance> <dep_store_seq|-> <bypass>

Fields not applicable to an op class are written as their defaults, so the
reader round-trips exactly.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Sequence, TextIO, Union

from .columns import Trace
from .uop import BypassClass, MicroOp, OpClass

__all__ = ["write_trace", "read_trace", "TraceFormatError", "FORMAT_VERSION"]

FORMAT_VERSION = 1

_OP_CODES = {op: op.value for op in OpClass}
_OP_FROM_CODE = {op.value: op for op in OpClass}
_BYPASS_FROM_CODE = {cls.value: cls for cls in BypassClass}


class TraceFormatError(ValueError):
    """Raised when a trace file does not parse."""


def _encode_uop(uop: MicroOp) -> str:
    srcs = ",".join(str(s) for s in uop.srcs) if uop.srcs else "-"
    addr_src = str(uop.addr_src) if uop.addr_src is not None else "-"
    dep = str(uop.dep_store_seq) if uop.dep_store_seq is not None else "-"
    return " ".join([
        str(uop.seq),
        _OP_CODES[uop.op],
        format(uop.pc, "x"),
        srcs,
        addr_src,
        "1" if uop.taken else "0",
        format(uop.target, "x"),
        format(uop.address, "x"),
        str(uop.size),
        str(uop.store_distance),
        dep,
        uop.bypass.value,
    ])


def _decode_uop(line: str, lineno: int) -> MicroOp:
    parts = line.split()
    if len(parts) != 12:
        raise TraceFormatError(
            f"line {lineno}: expected 12 fields, got {len(parts)}"
        )
    try:
        srcs = (
            tuple(int(s) for s in parts[3].split(","))
            if parts[3] != "-" else ()
        )
        return MicroOp(
            seq=int(parts[0]),
            pc=int(parts[2], 16),
            op=_OP_FROM_CODE[parts[1]],
            srcs=srcs,
            addr_src=None if parts[4] == "-" else int(parts[4]),
            taken=parts[5] == "1",
            target=int(parts[6], 16),
            address=int(parts[7], 16),
            size=int(parts[8]),
            store_distance=int(parts[9]),
            dep_store_seq=None if parts[10] == "-" else int(parts[10]),
            bypass=_BYPASS_FROM_CODE[parts[11]],
        )
    except (KeyError, ValueError) as exc:
        raise TraceFormatError(f"line {lineno}: {exc}") from exc


def write_trace(
    trace: Sequence[MicroOp],
    destination: Union[str, Path, TextIO],
    benchmark: str = "unknown",
) -> None:
    """Serialise a trace to a file path or text stream."""
    own = isinstance(destination, (str, Path))
    stream: TextIO = open(destination, "w") if own else destination
    try:
        stream.write(
            f"#repro-trace v{FORMAT_VERSION} {benchmark} {len(trace)}\n"
        )
        for uop in trace:
            stream.write(_encode_uop(uop) + "\n")
    finally:
        if own:
            stream.close()


def read_trace(source: Union[str, Path, TextIO]) -> Trace:
    """Load a trace previously written by :func:`write_trace`.

    Validates the header, the per-line field count and the sequential
    numbering, so a truncated or corrupted file fails loudly rather than
    silently producing a shorter experiment.  The micro-ops are returned
    as a :class:`~repro.trace.columns.Trace` (:meth:`Trace.from_uops
    <repro.trace.columns.Trace.from_uops>`), ready for every engine.
    """
    own = isinstance(source, (str, Path))
    stream: TextIO = open(source, "r") if own else source
    try:
        header = stream.readline()
        fields = header.split()
        if (
            len(fields) != 4
            or fields[0] != "#repro-trace"
            or fields[1] != f"v{FORMAT_VERSION}"
        ):
            raise TraceFormatError(f"bad header: {header!r}")
        expected = int(fields[3])
        trace: List[MicroOp] = []
        for lineno, line in enumerate(stream, start=2):
            line = line.strip()
            if not line:
                continue
            uop = _decode_uop(line, lineno)
            if uop.seq != len(trace):
                raise TraceFormatError(
                    f"line {lineno}: sequence gap (got {uop.seq}, "
                    f"expected {len(trace)})"
                )
            trace.append(uop)
        if len(trace) != expected:
            raise TraceFormatError(
                f"header declares {expected} micro-ops, file holds "
                f"{len(trace)}"
            )
        try:
            return Trace.from_uops(trace)
        except (ValueError, OverflowError) as exc:
            # A value the columns cannot hold (a negative source, a
            # field past its column's width).
            raise TraceFormatError(str(exc)) from exc
    finally:
        if own:
            stream.close()

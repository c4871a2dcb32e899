"""Synthetic workload substrate: micro-ops, programs, traces, ground truth."""

from .columns import (
    BYPASS_BY_CODE,
    BYPASS_CODES,
    OP_BY_CODE,
    OP_CODES,
    Trace,
    TraceColumns,
)
from .dependence import DEFAULT_WINDOWS, classify_overlap, fill_dependences
from .generator import TraceGenerator, generate_trace
from .profiles import SPEC_SUITE, WorkloadProfile, get_profile, suite_names
from .stream import FORMAT_VERSION, TraceFormatError, read_trace, write_trace
from .program import (
    CODE_BASE,
    FILLER_REGION,
    PAIR_GEOMETRY,
    PAIR_REGION,
    SLOT_STRIDE,
    STREAM_REGION,
    BranchBehavior,
    IndirectBehavior,
    PairInfo,
    Program,
    Segment,
    StaticInst,
    StaticKind,
    build_program,
)
from .uop import MAX_STORE_DISTANCE, BypassClass, MicroOp, OpClass
from .validate import TraceValidationError, ValidationReport, validate_trace

__all__ = [
    "BYPASS_BY_CODE",
    "BYPASS_CODES",
    "OP_BY_CODE",
    "OP_CODES",
    "Trace",
    "TraceColumns",
    "FORMAT_VERSION",
    "TraceFormatError",
    "read_trace",
    "write_trace",
    "DEFAULT_WINDOWS",
    "classify_overlap",
    "fill_dependences",
    "TraceGenerator",
    "generate_trace",
    "SPEC_SUITE",
    "WorkloadProfile",
    "get_profile",
    "suite_names",
    "CODE_BASE",
    "FILLER_REGION",
    "PAIR_GEOMETRY",
    "PAIR_REGION",
    "SLOT_STRIDE",
    "STREAM_REGION",
    "BranchBehavior",
    "IndirectBehavior",
    "PairInfo",
    "Program",
    "Segment",
    "StaticInst",
    "StaticKind",
    "build_program",
    "MAX_STORE_DISTANCE",
    "TraceValidationError",
    "ValidationReport",
    "validate_trace",
    "BypassClass",
    "MicroOp",
    "OpClass",
]

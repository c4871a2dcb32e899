"""Span tracer for the benchmark's traced pass.

The tracer wraps each layer's boundary callables from outside the
``repro`` package and records one span per call: name, start, end, span
id, parent span id, process id and a run id of the form
``workload:seed:pass``.  Spans stay in memory and are written out when a
pass ends.

Three rules make the wrapping faithful:

* A callable is patched where it is *looked up*, not where it is
  defined.  ``runner.generate_trace`` and ``parallel.cell_key`` are
  bound by from-import, so patching ``repro.trace.generator`` would miss
  every call.
* Wrappers carry ``functools.wraps`` metadata, so a function that a
  process pool pickles by reference still resolves to the (wrapped)
  module attribute.
* A boundary that no longer exists (a renamed ``_phase_a``) is recorded
  as absent with a warning; the run goes on without that span.

Hot boundaries called once per simulated memory access or load
(``leaf=True``) do not record a span per call.  Each call adds its count
and duration to the enclosing span's ``leaves`` table instead, which
keeps both memory and overhead bounded while the self-time arithmetic
stays exact.

Pool workers inherit the installed wrappers through ``fork``.  A worker
appends each cell's spans to ``spans-<pid>.jsonl`` in the spool
directory as the cell ends, because the pool kills its workers at close
and no exit hook would run.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Tuple

__all__ = ["Boundary", "CELL_SPAN", "Tracer", "covered_seconds",
           "self_times"]

#: The span whose close harvests the simulated memory statistics of the
#: hierarchies built while it was open (one cell's worth).
CELL_SPAN = "experiments.compute_cell"


@dataclass(frozen=True)
class Boundary:
    """One wrapped callable: where it is looked up and what it records."""

    #: Span name, ``<layer>.<what>``; layers are ``repro`` package names.
    name: str
    #: Module in which the callable is looked up at call time.
    module: str
    #: Attribute path inside the module, e.g. ``BatchedPipeline.run``.
    attr: str
    #: Aggregate calls into the enclosing span instead of one span each.
    leaf: bool = False


class Tracer:
    """Records spans for the boundaries it is installed on.

    One instance serves one process tree: ``install`` patches the
    boundaries, forked children keep recording into their own copy, and
    ``uninstall`` restores every original attribute.
    """

    def __init__(self, spool_dir: Path) -> None:
        self.spool_dir = Path(spool_dir)
        self.run_id = ""
        self.owner_pid = os.getpid()
        self.pid = self.owner_pid
        self.spans: List[dict] = []
        self.absent: List[str] = []
        # Open frames: [span_id, name, parent_id, start, leaves].
        self._stack: List[list] = []
        self._base_depth = 0
        self._next_id = 0
        self._hierarchies: List[object] = []
        self._patches: List[Tuple[object, str, object]] = []
        self._installed = False
        self._fork_hook = False

    # -- installation ---------------------------------------------------------

    def install(self, boundaries: Iterable[Boundary]) -> None:
        """Patch every boundary; missing ones are recorded as absent."""
        if not self._fork_hook:
            os.register_at_fork(after_in_child=self._after_fork)
            self._fork_hook = True
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        for boundary in boundaries:
            self._patch(boundary.module, boundary.attr, boundary.name,
                        lambda fn, b=boundary: self._wrap(b, fn))
        self._patch("repro.memory.hierarchy", "MemoryHierarchy.__init__",
                    "memory.hierarchies", self._wrap_registration)
        self._installed = True

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()
        self._installed = False

    def _patch(self, module_name: str, path: str, name: str,
               make_wrapper: Callable[[Callable], Callable]) -> None:
        try:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = (owner.__dict__[attr] if isinstance(owner, type)
                   else getattr(owner, attr))
        except (ImportError, AttributeError, KeyError) as error:
            self.absent.append(name)
            warnings.warn(f"trace boundary {name} ({module_name}.{path}) "
                          f"is absent: {error!r}; its span is not recorded",
                          RuntimeWarning, stacklevel=3)
            return
        if isinstance(raw, classmethod):
            wrapped: object = classmethod(make_wrapper(raw.__func__))
        else:
            wrapped = make_wrapper(raw)
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, raw))

    def _after_fork(self) -> None:
        """A forked worker keeps the open frames (for parent ids) only."""
        if not self._installed:
            return
        self.pid = os.getpid()
        self.spans = []
        self._hierarchies = []
        self._base_depth = len(self._stack)

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, boundary: Boundary, fn: Callable) -> Callable:
        name = boundary.name
        perf = time.perf_counter
        stack = self._stack
        if boundary.leaf:
            @functools.wraps(fn)
            def leaf(*args, **kwargs):
                start = perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = perf() - start
                    if stack:
                        leaves = stack[-1][4]
                        entry = leaves.get(name)
                        if entry is None:
                            leaves[name] = [1, elapsed]
                        else:
                            entry[0] += 1
                            entry[1] += elapsed
            return leaf

        @functools.wraps(fn)
        def span(*args, **kwargs):
            self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close()
        return span

    def _wrap_registration(self, init: Callable) -> Callable:
        @functools.wraps(init)
        def register(hierarchy, *args, **kwargs):
            init(hierarchy, *args, **kwargs)
            self._hierarchies.append(hierarchy)
        return register

    # -- span bookkeeping -----------------------------------------------------

    def _open(self, name: str) -> None:
        self._next_id += 1
        span_id = f"{self.pid}.{self._next_id}"
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append([span_id, name, parent, time.perf_counter(), {}])

    def _close(self) -> None:
        end = time.perf_counter()
        span_id, name, parent, start, leaves = self._stack.pop()
        span = {"name": name, "id": span_id, "parent": parent,
                "pid": self.pid, "run": self.run_id, "start": start,
                "end": end, "leaves": leaves}
        if name == CELL_SPAN:
            span["memory"] = self._harvest_memory()
        self.spans.append(span)
        if self.pid != self.owner_pid and len(self._stack) == self._base_depth:
            self._spool()

    def _harvest_memory(self) -> Dict[str, int]:
        """Sum and forget the cache statistics of this cell's hierarchies."""
        totals = {"l1d_accesses": 0, "l1d_misses": 0, "l2_misses": 0,
                  "l3_misses": 0, "prefetch_fills": 0}
        for hierarchy in self._hierarchies:
            totals["l1d_accesses"] += hierarchy.l1d.stats.accesses
            totals["l1d_misses"] += hierarchy.l1d.stats.misses
            totals["l2_misses"] += hierarchy.l2.stats.misses
            totals["l3_misses"] += hierarchy.l3.stats.misses
            totals["prefetch_fills"] += (hierarchy.l1d.stats.prefetch_fills
                                         + hierarchy.l2.stats.prefetch_fills)
        self._hierarchies.clear()
        return totals

    def _spool(self) -> None:
        """Append a worker's finished spans to its per-pid JSONL file."""
        path = self.spool_dir / f"spans-{self.pid}.jsonl"
        with open(path, "a") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
        self.spans = []

    def collect(self) -> List[dict]:
        """This process's spans plus every worker's spooled spans; resets."""
        spans, self.spans = self.spans, []
        for path in sorted(self.spool_dir.glob("spans-*.jsonl")):
            with open(path) as handle:
                spans.extend(json.loads(line) for line in handle if line.strip())
            path.unlink()
        return spans


def covered_seconds(start: float, end: float,
                    intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    clipped = sorted((max(a, start), min(b, end)) for a, b in intervals)
    covered = 0.0
    cursor = start
    for a, b in clipped:
        if b <= cursor:
            continue
        covered += b - max(a, cursor)
        cursor = b
    return covered


def self_times(spans: List[dict]) -> Dict[str, float]:
    """Self time of every span, by span id.

    A span's self time is its duration minus the part of it covered by
    its child spans in the same process (a worker's spans run in parallel
    with, not inside, the coordinator's) and minus the time its leaf
    calls took.
    """
    children: Dict[Tuple[str, int], List[Tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault((span["parent"], span["pid"]), []).append(
                (span["start"], span["end"]))
    result = {}
    for span in spans:
        covered = covered_seconds(span["start"], span["end"],
                                  children.get((span["id"], span["pid"]), ()))
        leaf_s = sum(seconds for _, seconds in span["leaves"].values())
        result[span["id"]] = span["end"] - span["start"] - covered - leaf_s
    return result

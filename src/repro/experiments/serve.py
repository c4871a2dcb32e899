"""``repro serve``: async HTTP coordinator front-end for grid submission.

A thin asyncio HTTP/1.1 layer (stdlib only — no web framework) in front
of the existing backend supervisor: a tenant POSTs a JSON grid
description and gets the grid back as an NDJSON stream, one record per
cell *as it settles* plus lease/requeue metric records, ending with a
``done`` record carrying an aggregate summary.  Multiple tenants submit
concurrently; each submission runs :func:`~repro.experiments.parallel
.execute_cells` in its own thread with its own backend connections, so
tenants multiplex onto one ``repro worker`` fleet (start the workers
with ``--sessions`` > 1) and one shared cache — local directory or
``repro cache-serve`` URL.

Endpoints::

    GET  /healthz  -> {"ok": true, "active": N, "submissions": M, ...}
    POST /submit   -> NDJSON stream (Content-Type: application/x-ndjson)

Submission body (JSON object)::

    {"mode": "accuracy" | "timing",
     "predictors": [...],              # required, registry names
     "benchmarks": [...],              # default: the full suite
     "num_uops": 30000,                # default: DEFAULT_TRACE_LENGTH
     "warmup": 0,                      # accuracy only; default uops//4
     "engine": "scalar" | "batched",   # timing only
     "retries": 0, "cell_timeout": null,
     "keep_going": true}               # false: first failure aborts

Stream grammar (one JSON object per line)::

    {"event": "start", "submission": id, "cells": N, ...}
    {"event": "cell", "position": i, "benchmark": ..., "predictor": ...,
     "source": "cache"|"journal"|"computed", "status": "ok",
     "result": <encoded>, "digest": ...}          # or status "failed"
    {"event": "requeue", ...}                      # live, as they happen
    {"event": "sweep", ... "backend": {leases_granted: ...}, "cache": ...}
    {"event": "done", "submission": id, "ok": N, "failed": M,
     "summary": {...}}                             # always the last line

Cell results are the same digest-carrying encoded payloads the cache and
journal use, so a streamed grid is bit-identical to a local run; the
``done`` summary (see :func:`submission_summary`) contains per-cell
content digests — diffing two summaries proves two runs agree.

It listens through asyncio streams and creates no socket itself
(``conc-socket``); it reads no clocks and writes no files beyond the
ready file (``det-time`` / ``det-write``).
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import threading
from pathlib import Path
from typing import Dict, Optional, Sequence

from ..common.hashing import stable_digest
from ..core.config import GOLDEN_COVE
from ..obs.metrics import MetricsWriter
from ..trace.profiles import suite_names
from .resilience import DEFAULT_POLICY, CellFailure, ResiliencePolicy
from .result_cache import encode_result
from .runner import DEFAULT_TRACE_LENGTH

__all__ = [
    "SubmissionError",
    "SubmissionSpec",
    "serve_http",
    "submission_summary",
]

#: Hard ceiling on a submission body; far above any real grid spec.
MAX_BODY_BYTES = 4 * 1024 * 1024


class SubmissionError(ValueError):
    """A submission body that cannot become a valid grid (HTTP 400)."""


class SubmissionSpec:
    """Validated form of one POSTed grid submission.

    Construction performs *all* validation, so a bad submission fails
    before any worker or cache connection is made.  ``cells`` come out in
    the same (benchmark-major) order the suite functions use, so the
    positional merge matches a local
    :func:`~repro.experiments.suite.run_accuracy_suite` /
    :func:`~repro.experiments.suite.run_ipc_suite` of the same grid.
    """

    def __init__(self, body: Dict):
        from .parallel import CellSpec  # deferred: parallel is heavy
        from .suite import PREDICTOR_FACTORIES

        if not isinstance(body, dict):
            raise SubmissionError("submission must be a JSON object")
        known = {"mode", "predictors", "benchmarks", "num_uops", "warmup",
                 "engine", "retries", "cell_timeout", "keep_going"}
        unknown = sorted(set(body) - known)
        if unknown:
            raise SubmissionError(f"unknown submission fields: {unknown}")
        self.mode = body.get("mode", "accuracy")
        if self.mode not in ("accuracy", "timing"):
            raise SubmissionError(f"unknown mode {self.mode!r}")
        predictors = body.get("predictors")
        if (not isinstance(predictors, list) or not predictors
                or not all(isinstance(p, str) for p in predictors)):
            raise SubmissionError("predictors must be a non-empty list")
        bad = sorted(set(predictors) - set(PREDICTOR_FACTORIES))
        if bad:
            raise SubmissionError(f"unknown predictors: {bad}")
        self.predictors = list(predictors)
        benchmarks = body.get("benchmarks")
        if benchmarks is None:
            benchmarks = suite_names()
        if (not isinstance(benchmarks, list) or not benchmarks
                or not all(isinstance(b, str) for b in benchmarks)):
            raise SubmissionError("benchmarks must be a non-empty list")
        bad = sorted(set(benchmarks) - set(suite_names()))
        if bad:
            raise SubmissionError(f"unknown benchmarks: {bad}")
        self.benchmarks = list(benchmarks)
        self.num_uops = body.get("num_uops", DEFAULT_TRACE_LENGTH)
        if not isinstance(self.num_uops, int) or self.num_uops <= 0:
            raise SubmissionError("num_uops must be a positive integer")
        warmup = body.get("warmup")
        if warmup is None:
            warmup = self.num_uops // 4
        if not isinstance(warmup, int) or warmup < 0:
            raise SubmissionError("warmup must be a non-negative integer")
        self.warmup = warmup if self.mode == "accuracy" else 0
        self.engine = body.get("engine", "scalar")
        if self.engine not in ("scalar", "batched"):
            raise SubmissionError(f"unknown engine {self.engine!r}")
        retries = body.get("retries", DEFAULT_POLICY.retries)
        if not isinstance(retries, int) or retries < 0:
            raise SubmissionError("retries must be a non-negative integer")
        cell_timeout = body.get("cell_timeout")
        if cell_timeout is not None and (
                not isinstance(cell_timeout, (int, float))
                or cell_timeout <= 0):
            raise SubmissionError("cell_timeout must be a positive number")
        keep_going = body.get("keep_going", True)
        if not isinstance(keep_going, bool):
            raise SubmissionError("keep_going must be a boolean")
        self.policy = ResiliencePolicy(
            retries=retries,
            cell_timeout=(float(cell_timeout)
                          if cell_timeout is not None else None),
            fail_fast=not keep_going,
        )
        config = GOLDEN_COVE
        if self.mode == "timing":
            self.cells = [
                CellSpec(mode="timing", benchmark=bench,
                         num_uops=self.num_uops, predictor=name,
                         config=config, store_window=config.sb_size,
                         instr_window=config.rob_size, engine=self.engine)
                for bench in self.benchmarks for name in self.predictors
            ]
        else:
            self.cells = [
                CellSpec(mode="accuracy", benchmark=bench,
                         num_uops=self.num_uops, predictor=name,
                         warmup=self.warmup)
                for bench in self.benchmarks for name in self.predictors
            ]


def submission_summary(mode: str, cells: Sequence,
                       results: Sequence) -> Dict[str, object]:
    """Aggregate merged grid results the way the CLI tables do.

    ``digests`` carries a content digest per completed cell — two runs of
    the same grid are bit-identical iff their digest maps are equal, which
    is exactly how the chaos drill compares a served grid against a serial
    reference.  ``totals`` mirrors the human-facing aggregation: summed
    accuracy counters per predictor, or per-benchmark IPC.
    """
    digests: Dict[str, str] = {}
    failures: Dict[str, str] = {}
    totals: Dict[str, Dict] = {}
    for spec, result in zip(cells, results):
        label = f"{spec.benchmark}/{spec.predictor}"
        if isinstance(result, CellFailure):
            failures[label] = result.kind.value
            continue
        digests[label] = stable_digest(encode_result(result))
        if mode == "accuracy":
            acc = result.accuracy
            bucket = totals.setdefault(spec.predictor, {
                "mispredictions": 0, "false_dependencies": 0,
                "speculative_errors": 0,
            })
            bucket["mispredictions"] += acc.mispredictions
            bucket["false_dependencies"] += acc.false_dependencies
            bucket["speculative_errors"] += acc.speculative_errors
        else:
            totals.setdefault(spec.predictor, {})[spec.benchmark] = \
                result.ipc
    return {"digests": digests, "failures": failures, "totals": totals}


class _StreamMetrics(MetricsWriter):
    """A MetricsWriter that pushes records to the NDJSON stream.

    Per-cell records are suppressed (the settle callback streams richer
    ``cell`` records carrying the results); requeue events and the final
    ``sweep`` record (lease/backend/cache counters) pass through live.
    """

    def __init__(self, push):
        # Deliberately no super().__init__: no path, no file.
        self._push = push
        self.records = 0

    def emit(self, record: Dict[str, object]) -> None:
        self.records += 1
        if record.get("event") != "cell":
            self._push(record)

    def close(self) -> None:
        pass


class _Coordinator:
    """Shared config + counters behind one ``repro serve`` listener.

    ``execution`` carries the fleet-wide knobs (``jobs``, ``cache``,
    ``backend``); each submission brings its own resilience policy and
    streams its metrics records.
    """

    def __init__(self, execution):
        self.execution = execution
        self.submissions = 0
        self.active = 0
        self.lock = threading.Lock()

    def run_submission(self, sub: SubmissionSpec, submission_id: int,
                       push) -> None:
        """Blocking grid execution (runs in a worker thread).

        ``push`` enqueues one NDJSON record onto the tenant's stream
        (thread-safe).  Every exit path emits a terminal ``done`` or
        ``error`` record so the client never hangs on a silent stream.
        """
        def settle(position, spec, key, outcome, source):
            record = {
                "event": "cell",
                "position": position,
                "benchmark": spec.benchmark,
                "predictor": spec.predictor,
                "key": key,
                "source": source,
            }
            if isinstance(outcome, CellFailure):
                record["status"] = "failed"
                record["failure_kind"] = outcome.kind.value
                record["failure_message"] = outcome.message
            else:
                encoded = encode_result(outcome)
                record["status"] = "ok"
                record["result"] = encoded
                record["digest"] = stable_digest(encoded)
            push(record)

        try:
            execution = dataclasses.replace(
                self.execution, policy=sub.policy,
                metrics=_StreamMetrics(push))
            results = execution.run(sub.cells, settle=settle)
        except Exception as error:  # fail_fast grid, dead fleet, ...
            push({"event": "error", "submission": submission_id,
                  "error": f"{type(error).__name__}: {error}"})
            return
        failed = sum(1 for r in results if isinstance(r, CellFailure))
        push({
            "event": "done",
            "submission": submission_id,
            "ok": len(results) - failed,
            "failed": failed,
            "summary": submission_summary(sub.mode, sub.cells, results),
        })


# ------------------------------------------------------------- HTTP layer

def _ndjson(record: Dict) -> bytes:
    return (json.dumps(record, sort_keys=True) + "\n").encode()


def _http_head(status: str, content_type: str,
               length: Optional[int] = None) -> bytes:
    head = [f"HTTP/1.1 {status}", f"Content-Type: {content_type}",
            "Connection: close"]
    if length is not None:
        head.append(f"Content-Length: {length}")
    return ("\r\n".join(head) + "\r\n\r\n").encode()


async def _read_request(reader: asyncio.StreamReader):
    """Parse one request: ``(method, path, body)`` or None on garbage."""
    try:
        request_line = await reader.readline()
        parts = request_line.decode("latin-1").split()
        if len(parts) < 3:
            return None
        method, path = parts[0].upper(), parts[1]
        content_length = 0
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    return None
        if content_length > MAX_BODY_BYTES:
            return None
        body = (await reader.readexactly(content_length)
                if content_length else b"")
        return method, path, body
    except (OSError, ValueError, asyncio.IncompleteReadError):
        return None


async def _handle_client(reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter,
                         coordinator: _Coordinator) -> None:
    try:
        request = await _read_request(reader)
        if request is None:
            writer.write(_http_head("400 Bad Request", "application/json",
                                    0))
            return
        method, path, body = request
        if method == "GET" and path == "/healthz":
            execution = coordinator.execution
            payload = json.dumps({
                "ok": True,
                "active": coordinator.active,
                "submissions": coordinator.submissions,
                "backend": execution.backend or "local",
                "cache": (execution.cache
                          if isinstance(execution.cache, str)
                          else bool(execution.cache)),
            }, sort_keys=True).encode()
            writer.write(_http_head("200 OK", "application/json",
                                    len(payload)) + payload)
            return
        if method != "POST" or path != "/submit":
            writer.write(_http_head("404 Not Found", "application/json", 0))
            return
        try:
            sub = SubmissionSpec(json.loads(body.decode("utf-8")))
        except (ValueError, UnicodeDecodeError) as error:
            payload = json.dumps({"error": str(error)}).encode()
            writer.write(_http_head("400 Bad Request", "application/json",
                                    len(payload)) + payload)
            return

        with coordinator.lock:
            coordinator.submissions += 1
            coordinator.active += 1
            submission_id = coordinator.submissions
        loop = asyncio.get_running_loop()
        queue: asyncio.Queue = asyncio.Queue()

        def push(record: Dict) -> None:
            loop.call_soon_threadsafe(queue.put_nowait, record)

        writer.write(_http_head("200 OK", "application/x-ndjson"))
        writer.write(_ndjson({
            "event": "start", "submission": submission_id,
            "mode": sub.mode, "cells": len(sub.cells),
            "benchmarks": sub.benchmarks, "predictors": sub.predictors,
        }))
        await writer.drain()
        worker = loop.run_in_executor(
            None, coordinator.run_submission, sub, submission_id, push)
        try:
            while True:
                record = await queue.get()
                writer.write(_ndjson(record))
                await writer.drain()
                if record.get("event") in ("done", "error"):
                    break
            await worker
        finally:
            with coordinator.lock:
                coordinator.active -= 1
    except (OSError, ConnectionResetError):
        pass  # tenant hung up mid-stream; the executor thread finishes
    finally:
        try:
            writer.close()
            await writer.wait_closed()
        except OSError:
            pass


async def _serve_async(host: str, port: int, coordinator: _Coordinator,
                       ready_file: Optional[str], quiet: bool,
                       stop: Optional[threading.Event]) -> None:
    server = await asyncio.start_server(
        lambda r, w: _handle_client(r, w, coordinator), host, port)
    bound = server.sockets[0].getsockname()[1]
    if not quiet:
        print(f"[repro-serve] listening on http://{host}:{bound} "
              f"(backend={coordinator.execution.backend or 'local'})",
              flush=True)
    if ready_file is not None:
        path = Path(ready_file)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(f"{host}:{bound}\n")
    async with server:
        if stop is None:
            await server.serve_forever()
        else:
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, stop.wait)


def serve_http(host: str = "127.0.0.1", port: int = 0,
               execution=None,
               ready_file: Optional[str] = None,
               quiet: bool = False,
               stop: Optional[threading.Event] = None) -> None:
    """Run the coordinator HTTP front-end until stopped.

    ``execution`` (an :class:`~repro.experiments.parallel.Execution`;
    default: local, serial, default cache) supplies the fleet every
    submission shares: ``backend`` as a ``host:port,...`` worker list
    (each submission connects to every endpoint; run workers with
    ``--sessions`` sized for the tenant count) or local ``jobs``
    processes, and ``cache`` in any string form — notably a ``tcp://``
    URL for a shared ``repro cache-serve``.  Its ``policy`` and
    ``metrics`` are replaced per submission.
    """
    if execution is None:
        from .parallel import Execution  # deferred: parallel is heavy
        execution = Execution(cache=True)
    asyncio.run(_serve_async(host, port, _Coordinator(execution),
                             ready_file, quiet, stop))

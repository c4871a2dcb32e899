"""``repro worker``: serve suite cells to a coordinator over TCP.

One worker process listens on one port and serves one coordinator session
at a time (the coordinator holds one connection per worker and keeps at
most one cell in flight on it).  For every ``run`` frame the worker:

1. decodes the wire :class:`~repro.experiments.parallel.CellSpec`,
2. starts a heartbeat thread beating every ``heartbeat`` seconds so the
   coordinator's lease stays fresh while the cell computes,
3. computes the cell in the **main thread** — so an injected ``crash``
   fault (SIGKILL via ``REPRO_FAULT_INJECT``) kills the whole worker
   process and the coordinator observes a dropped socket, exactly like a
   real OOM kill — and
4. replies with one terminal ``result`` frame (encoded payload + content
   digest) or ``error`` frame, then waits for the next ``run``.

A worker keeps nothing between cells but the traces in its in-process
:class:`~repro.experiments.runner.TraceCache` (pure functions of their
seeds, reused across the cells trace-affine dispatch sends it) and builds
a fresh predictor per cell, so a cell computed here is bit-identical to
one computed locally.  After the coordinator disconnects the worker
loops back to ``accept``, so a killed-and-restarted coordinator reuses
running workers.

Protocol fault injection (``REPRO_FAULT_INJECT``, see
:func:`~repro.experiments.resilience.take_protocol_fault`): ``stall``
suppresses heartbeats and holds the result (the coordinator expires the
lease), ``torn`` truncates the result frame mid-send (worker-lost),
``corrupt`` flips the result digest (result-corrupt, exercising the
coordinator's payload verification).

Listening, the hello exchange and shutdown are
:class:`~repro.experiments.backends.FrameServer`'s; this module holds only
what a worker does with a session.
"""

from __future__ import annotations

import threading
from typing import Optional

from ..common.hashing import stable_digest
from .backends import (
    PROTOCOL_VERSION,
    FrameServer,
    recv_frame,
    send_frame,
    send_torn,
    spec_from_wire,
    stall,
)
from .resilience import take_protocol_fault

__all__ = ["serve"]


def serve(host: str = "127.0.0.1", port: int = 0,
          ready_file: Optional[str] = None,
          max_sessions: Optional[int] = None,
          stop: Optional[threading.Event] = None,
          quiet: bool = False) -> int:
    """Listen for coordinator sessions; returns the bound port.

    ``port=0`` binds an ephemeral port, printed on stdout and written
    (as ``host:port``) to ``ready_file`` when given — launch scripts and
    tests poll that file instead of parsing output.  ``max_sessions``
    exits after that many coordinator sessions (tests); ``stop`` is an
    optional event polled between ``accept`` attempts (in-process use).
    Sessions run one at a time with cells computed in the main thread,
    so an injected SIGKILL crash fault takes the whole process down,
    exactly like a real OOM kill.
    """
    server = FrameServer(_session, host, port)
    if not quiet:
        print(f"[repro-worker] listening on {host}:{server.port} "
              f"(protocol v{PROTOCOL_VERSION})", flush=True)
    return server.serve(ready_file, max_sessions, stop)


def _session(conn) -> None:
    """One coordinator session after the hello exchange: serve run frames."""
    send_lock = threading.Lock()
    while True:
        frame = recv_frame(conn)
        if frame is None:
            return
        if frame.get("type") == "run":
            _run_cell(conn, send_lock, frame)


def _run_cell(conn, send_lock: threading.Lock, frame: dict) -> None:
    """Compute one leased cell and send its terminal frame."""
    from .parallel import compute_cell  # deferred: parallel imports backends
    from .result_cache import encode_result

    lease = frame.get("lease")
    interval = float(frame.get("heartbeat", 1.0))
    spec = spec_from_wire(frame["spec"])
    fault = take_protocol_fault(spec)
    stalled = fault is not None and fault.kind == "stall"
    stop_beat = threading.Event()
    beat: Optional[threading.Thread] = None
    if stalled:
        # A wedged/partitioned worker: silent past the lease window.  The
        # coordinator expires the lease and drops this connection; the
        # send below then fails and ends the session.
        stall(fault)
    else:
        beat = threading.Thread(
            target=_heartbeat,
            args=(conn, send_lock, lease, interval, stop_beat),
            daemon=True)
        beat.start()
    try:
        try:
            result = compute_cell(spec)
        except Exception as error:  # cell failed; report and stay alive
            send_frame(conn, {"type": "error", "lease": lease,
                              "error": f"{type(error).__name__}: {error}"},
                       send_lock)
            return
        encoded = encode_result(result)
        digest = stable_digest(encoded)
        if fault is not None and fault.kind == "corrupt":
            digest = "0" * len(digest)
        if fault is not None and fault.kind == "torn":
            send_torn(conn, send_lock)
            raise OSError("injected torn result frame")
        send_frame(conn, {"type": "result", "lease": lease,
                          "result": encoded, "digest": digest}, send_lock)
    finally:
        stop_beat.set()
        if beat is not None:
            beat.join(timeout=max(interval, 1.0) * 2)


def _heartbeat(conn, send_lock: threading.Lock,
               lease: Optional[str], interval: float,
               stop: threading.Event) -> None:
    """Beat every ``interval`` seconds until stopped or the socket dies."""
    while not stop.wait(interval):
        try:
            send_frame(conn, {"type": "heartbeat", "lease": lease},
                       send_lock)
        except OSError:
            return

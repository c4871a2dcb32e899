"""Executor backends: where suite cells actually run.

The supervisor loop in :mod:`repro.experiments.parallel` schedules cells,
enforces deadlines and classifies failures — but it no longer owns the
execution substrate.  That is an :class:`ExecutorBackend`:

* :class:`LocalPoolBackend` — ``workers`` slots, each a
  ``ProcessPoolExecutor`` with one process.  A slot runs one cell at a
  time and keeps its process's trace memo between cells, so the
  supervisor can send it every cell of the traces it already holds.
* :class:`WorkerBackend` — one TCP connection per ``repro worker``
  process, which may live on other hosts.  Dispatches are covered by
  *leases*: the worker heartbeats while computing, and a missed heartbeat
  or dropped socket expires the lease and requeues the cell.

Both run one cell per slot, so a lost or hung worker identifies its cell
with certainty: a crash costs exactly one requeue of that cell and
leaves the other slots' cells running.

Wire protocol
-------------
Length-prefixed JSON frames: a 4-byte big-endian length followed by a
UTF-8 JSON object.  The coordinator connects and sends ``hello``; the
server's reply carries its version and role, and :func:`connect` refuses
a skewed peer or one that is not a worker.  Then come ``run`` frames
carrying the wire-encoded :class:`~repro.experiments.parallel.CellSpec`
and a lease id; the worker
answers with ``heartbeat`` frames while computing and one terminal
``result`` (with a content digest the coordinator verifies — a mismatch
is a ``result-corrupt`` failure, never a wrong number) or ``error``
frame.  A torn frame or dropped socket is classified ``worker-lost``.
Everything on the wire is JSON built from the same encoders as the result
cache and journal, so a remotely computed cell is bit-identical to a
local one.

``repro worker`` (:mod:`repro.experiments.worker`) listens through
:class:`FrameServer` and the coordinator dials it through
:func:`connect`, so this module is the only sanctioned home for socket
use: the ``conc-socket`` lint rule keeps network I/O from leaking into
simulation code.
"""

from __future__ import annotations

import json
import os
import select
import socket
import struct
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from contextlib import nullcontext
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..core.config import CoreConfig
from ..memory.hierarchy import HierarchyConfig
from ..common.hashing import stable_digest
from .resilience import CellExecutionError

__all__ = [
    "BackendBrokenError",
    "ExecutorBackend",
    "FrameError",
    "FrameServer",
    "LeaseExpiredError",
    "LocalPoolBackend",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "ProtocolVersionError",
    "RemoteCellError",
    "ResultCorruptError",
    "WorkerBackend",
    "WorkerLostError",
    "connect",
    "lease_id",
    "parse_endpoint",
    "parse_endpoints",
    "probe_endpoint",
    "recv_frame",
    "send_frame",
    "send_torn",
    "spec_from_wire",
    "spec_to_wire",
    "stall",
]

#: Bump when the frame grammar changes incompatibly.  Exchanged in the
#: ``hello`` handshake; a skewed worker is refused (and reported by
#: ``repro doctor --workers``) rather than fed cells it may misdecode.
PROTOCOL_VERSION = 1

#: Hard ceiling on one frame's payload; a length prefix beyond this is a
#: protocol violation (torn stream, or not our protocol at all).
MAX_FRAME_BYTES = 64 * 1024 * 1024

_HEADER = struct.Struct(">I")

#: Default TCP connect timeout (seconds) for worker endpoints.
CONNECT_TIMEOUT = 5.0


class FrameError(ConnectionError):
    """The byte stream violated the framing protocol (torn/oversized)."""


class ProtocolVersionError(ConnectionError):
    """The worker speaks a different protocol version."""


class BackendBrokenError(RuntimeError):
    """The execution substrate is unusable; the supervisor must rebuild."""


class WorkerLostError(CellExecutionError):
    """The process/connection running a cell died mid-flight.

    ``original`` carries the underlying exception when one exists (the
    local pool's ``BrokenProcessPool``), so fail-fast re-raises exactly
    what the historical engine raised.
    """

    def __init__(self, message: str,
                 original: Optional[BaseException] = None):
        super().__init__(message)
        self.original = original


class LeaseExpiredError(CellExecutionError):
    """A worker stopped heartbeating past the lease deadline."""


class ResultCorruptError(CellExecutionError):
    """A result frame failed its content-digest verification."""


class RemoteCellError(CellExecutionError):
    """The cell raised inside a remote worker; message carries the repr."""


# --------------------------------------------------------------- framing

def send_frame(sock: socket.socket, payload: Dict, lock=None) -> None:
    """Serialise ``payload`` as one length-prefixed JSON frame."""
    data = json.dumps(payload, sort_keys=True).encode("utf-8")
    if len(data) > MAX_FRAME_BYTES:
        raise FrameError(f"frame of {len(data)} bytes exceeds the "
                         f"{MAX_FRAME_BYTES}-byte protocol ceiling")
    with lock if lock is not None else nullcontext():
        sock.sendall(_HEADER.pack(len(data)) + data)


def _recv_exact(sock: socket.socket, n: int) -> Optional[bytes]:
    """Read exactly ``n`` bytes; None on clean EOF at a frame boundary."""
    chunks: List[bytes] = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if chunks:
                raise FrameError(
                    f"torn frame: stream ended {remaining} bytes short")
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> Optional[Dict]:
    """Read one frame; None on clean EOF (peer closed between frames)."""
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise FrameError(f"frame length {length} exceeds the "
                         f"{MAX_FRAME_BYTES}-byte protocol ceiling")
    body = _recv_exact(sock, length)
    if body is None:
        raise FrameError("torn frame: stream ended before the payload")
    try:
        payload = json.loads(body.decode("utf-8"))
    except ValueError as error:
        raise FrameError(f"undecodable frame payload: {error}") from None
    if not isinstance(payload, dict):
        raise FrameError("frame payload is not a JSON object")
    return payload


# ------------------------------------------------------------ wire codec

def spec_to_wire(spec) -> Dict:
    """JSON-serialisable form of a CellSpec (nested configs flattened)."""
    wire = asdict(spec)
    return wire


def spec_from_wire(wire: Dict):
    """Inverse of :func:`spec_to_wire`; rebuilds the config dataclasses."""
    from .parallel import CellSpec  # local import: parallel imports us

    fields = dict(wire)
    config = fields.pop("config", None)
    if config is not None:
        memory = config.pop("memory", None)
        if memory is not None:
            config["memory"] = HierarchyConfig(**memory)
        config = CoreConfig(**config)
    return CellSpec(config=config, **fields)


def lease_id(key: str, attempt: int) -> str:
    """Deterministic lease id for one dispatch (no clock/entropy reads)."""
    return "lease-" + stable_digest(f"{key}:{attempt}")[:12]


def parse_endpoint(chunk: str) -> Tuple[str, int]:
    """Parse one ``host:port`` (or bracketed ``[v6addr]:port``) endpoint.

    IPv6 literals must be bracketed (``[::1]:5000``) — a bare ``::1:5000``
    is ambiguous.  Ports outside 1–65535 (``int`` happily parses ``-1``
    and ``99999``) are rejected here rather than at connect time.
    """
    chunk = chunk.strip()
    if chunk.startswith("["):
        host, sep, port_text = chunk[1:].partition("]:")
        if not sep or not host:
            raise ValueError(
                f"bad worker endpoint {chunk!r}: want [v6addr]:port")
    else:
        host, sep, port_text = chunk.rpartition(":")
        if not sep or not host:
            raise ValueError(f"bad worker endpoint {chunk!r}: want host:port")
        if ":" in host:
            raise ValueError(
                f"bad worker endpoint {chunk!r}: bracket IPv6 addresses "
                "([::1]:5000)")
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(
            f"bad worker endpoint {chunk!r}: port is not an integer"
        ) from None
    if not 1 <= port <= 65535:
        raise ValueError(
            f"bad worker endpoint {chunk!r}: port {port} outside 1-65535")
    return host, port


def parse_endpoints(text: str) -> Tuple[Tuple[str, int], ...]:
    """Parse ``host:port[,host:port...]`` into endpoint tuples.

    A duplicate endpoint is an error: it would silently double-connect
    one worker, and ``repro worker`` serves one session at a time — the
    duplicate connection would deadlock the sweep until its deadline.
    """
    endpoints: List[Tuple[str, int]] = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        endpoint = parse_endpoint(chunk)
        if endpoint in endpoints:
            raise ValueError(
                f"duplicate worker endpoint {chunk!r}: each endpoint is "
                "one worker; list it once")
        endpoints.append(endpoint)
    if not endpoints:
        raise ValueError(f"no worker endpoints in {text!r}")
    return tuple(endpoints)


def connect(host: str, port: int,
            timeout: float = CONNECT_TIMEOUT) -> Tuple[socket.socket, Dict]:
    """Dial the worker at ``host:port`` and handshake as the coordinator.

    The one client handshake of the frame protocol; returns the socket,
    which keeps ``timeout`` as its I/O timeout, and the worker's hello.
    Raises ``OSError`` when the endpoint is unreachable or closes
    mid-handshake (transient), :class:`ProtocolVersionError` on version
    skew, and :class:`FrameError` when the peer answers but its hello
    names a role other than ``worker`` (both permanent).
    """
    sock = socket.create_connection((host, port), timeout=timeout)
    try:
        sock.settimeout(timeout)
        send_frame(sock, {"type": "hello", "version": PROTOCOL_VERSION,
                          "role": "coordinator"})
        reply = recv_frame(sock)
        if reply is None:
            raise OSError(f"{host}:{port} closed during handshake")
        if reply.get("type") != "hello":
            raise FrameError(f"expected hello frame, got {reply!r}")
        if reply.get("version") != PROTOCOL_VERSION:
            raise ProtocolVersionError(
                f"worker speaks protocol v{reply.get('version')}, "
                f"coordinator v{PROTOCOL_VERSION}")
        if reply.get("role") != "worker":
            raise FrameError(
                f"peer is a {reply.get('role')!r}, not a worker")
    except BaseException:
        sock.close()
        raise
    return sock, reply


def probe_endpoint(host: str, port: int,
                   timeout: float = CONNECT_TIMEOUT) -> Dict:
    """Connect + handshake one endpoint; returns the worker's hello.

    Used by ``repro doctor --workers``.  Raises ``OSError`` when the
    endpoint is unreachable, :class:`ProtocolVersionError` on version
    skew and :class:`FrameError` when the peer is not a repro worker
    (any other service that answers the hello with another role).
    """
    sock, hello = connect(host, port, timeout)
    sock.close()
    return hello


# ---------------------------------------------------------- frame server

#: How long ``accept`` blocks between stop-flag checks.
_ACCEPT_TICK = 0.2

#: Seconds an injected ``stall`` stays silent when the clause carries no
#: explicit duration — far past any lease timeout, so the coordinator
#: always gives up first.
STALL_SECONDS = 30.0


def stall(fault) -> None:
    """Injected ``stall`` fault: a wedged or partitioned worker."""
    seconds = STALL_SECONDS
    if fault.arg is not None and not fault.once:
        seconds = float(fault.arg)
    time.sleep(seconds)


def send_torn(conn: socket.socket, lock) -> None:
    """Injected ``torn`` fault: promise more bytes than follow, then die.

    The client's ``recv_frame`` raises ``FrameError`` ("torn frame"),
    exactly as when a worker is killed mid-``sendall``.  ``lock`` is the
    session's send lock, so the torn bytes never interleave with a
    heartbeat frame.
    """
    with lock:
        conn.sendall(_HEADER.pack(1 << 16) + b'{"type":')
        conn.shutdown(socket.SHUT_RDWR)


class FrameServer:
    """The listening half of the frame protocol, behind ``repro worker``.

    Binds on construction (``port=0`` picks an ephemeral port, read back
    from :attr:`port`); :meth:`serve` then runs the accept loop.  Every
    accepted connection gets the hello exchange — the server always
    answers with its version and the ``worker`` role so a skewed client
    can diagnose the skew, then refuses to serve it — after which
    ``session(conn)`` handles request frames until the client leaves.
    Each session runs to completion in the accept loop, so coordinators
    are served one at a time; the listen backlog is one.
    """

    def __init__(self, session: Callable[[socket.socket], None],
                 host: str = "127.0.0.1", port: int = 0):
        self.host = host
        self._session = session
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen(1)
        self.port: int = self._sock.getsockname()[1]
        #: Connections accepted over the server's lifetime.
        self.accepted = 0

    def serve(self, ready_file: Optional[str] = None,
              max_sessions: Optional[int] = None,
              stop: Optional[threading.Event] = None) -> int:
        """Accept sessions until ``stop`` is set; returns the bound port.

        ``ready_file`` receives ``host:port`` once listening (written
        atomically, so a poller never reads it half-written).  With
        ``max_sessions`` the server returns after that many sessions.
        """
        if ready_file is not None:
            path = Path(ready_file)
            path.parent.mkdir(parents=True, exist_ok=True)
            partial = path.with_name(path.name + ".partial")
            partial.write_text(f"{self.host}:{self.port}\n")
            os.replace(partial, path)
        self._sock.settimeout(_ACCEPT_TICK)
        try:
            while stop is None or not stop.is_set():
                try:
                    conn, _addr = self._sock.accept()
                except socket.timeout:
                    continue
                except OSError:
                    break
                self.accepted += 1
                self._run(conn)
                if max_sessions is not None and self.accepted >= max_sessions:
                    break
        finally:
            self._sock.close()
        return self.port

    def _run(self, conn: socket.socket) -> None:
        """One session: hello exchange, then the worker's request loop."""
        try:
            conn.settimeout(None)
            hello = recv_frame(conn)
            if hello is None or hello.get("type") != "hello":
                return
            send_frame(conn, {"type": "hello", "version": PROTOCOL_VERSION,
                              "role": "worker"})
            if hello.get("version") != PROTOCOL_VERSION:
                return
            self._session(conn)
        except (OSError, FrameError):
            pass  # client vanished mid-session
        finally:
            try:
                conn.close()
            except OSError:
                pass


# ----------------------------------------------------------- backend API

class ExecutorBackend:
    """Where cells run; the supervisor drives this interface.

    A backend is a set of *slots*, each able to run one cell at a time.
    ``slots`` lists the live ones as opaque hashable tokens; a token is
    replaced whenever its worker's memory is lost (a respawned process,
    a reconnected endpoint), so the supervisor can tell which traces a
    slot still holds.  ``submit`` hands one cell to an idle slot and
    returns an opaque handle; ``wait`` blocks up to ``timeout`` for
    handles to finish; ``result`` returns the cell's result or raises
    the failure (:class:`WorkerLostError`, :class:`LeaseExpiredError`,
    :class:`ResultCorruptError`, :class:`RemoteCellError`, or the cell's
    own exception).
    """

    #: A lost or hung worker identifies its cell with certainty (one
    #: cell per slot), so the supervisor charges that cell alone...
    attributable = True
    #: ...and the other slots' in-flight cells are left untouched.
    isolates_failures = True
    #: True when dispatches are covered by journaled leases.
    leased = False

    #: Optional callback ``(action, handle)`` for lease lifecycle events
    #: ("renew"/"expire"); the supervisor wires it to the journal and
    #: metrics writer.  "grant" is recorded by the supervisor at submit.
    lease_observer: Optional[Callable[[str, object], None]] = None

    @property
    def workers(self) -> int:
        """Current concurrent capacity (may shrink as workers die)."""
        return len(self.slots())

    def slots(self) -> List[object]:
        """Tokens of the live slots, in a stable order."""
        raise NotImplementedError

    def submit(self, slot, fn, spec, lease: Optional[str] = None):
        """Run ``fn(spec)`` on idle ``slot``; raises
        :class:`BackendBrokenError` (and drops the slot) when the slot
        cannot take it."""
        raise NotImplementedError

    def wait(self, timeout: float) -> Set[object]:
        raise NotImplementedError

    def result(self, handle):
        raise NotImplementedError

    def forget(self, handle) -> None:
        """Abandon one in-flight handle (timeout) and the worker running
        it; never raises."""
        raise NotImplementedError

    def connect_all(self) -> int:
        """Establish the substrate's connections; returns capacity.

        A no-op for process-pool backends (the slots exist from
        construction); the worker backend dials every endpoint here.
        """
        return self.workers

    def rebuild(self) -> None:
        """Restore lost slots after total capacity loss; never raises."""
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    def describe(self, handle) -> str:
        """Short label of where a handle runs, for messages and leases."""
        raise NotImplementedError

    #: Lifetime counters for the metrics sweep record.
    counters: Dict[str, int]


class _Slot:
    """One local slot: a single-process pool running one cell at a time."""

    __slots__ = ("index", "pool", "future")

    def __init__(self, index: int):
        self.index = index
        self.pool = ProcessPoolExecutor(max_workers=1)
        self.future = None

    @property
    def label(self) -> str:
        return f"local:{self.index}"

    def kill(self) -> None:
        """Tear the pool down without waiting on a hung or dead worker."""
        processes = getattr(self.pool, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.kill()
            except Exception:  # noqa: BLE001 — already-dead worker
                pass
        self.pool.shutdown(wait=False, cancel_futures=True)


class LocalPoolBackend(ExecutorBackend):
    """``workers`` local slots, each its own one-process pool.

    Handles are the slots' futures.  ``BrokenProcessPool`` is translated
    to :class:`WorkerLostError` with the original exception attached, so
    the supervisor's fail-fast path re-raises exactly what the pool
    raised.  A slot whose worker died or was abandoned (timeout) is
    respawned at once as a fresh slot; one that cannot be respawned, or
    that fails to take a cell, stays lost until :meth:`rebuild`.
    """

    def __init__(self, workers: int):
        self._slots: List[Optional[_Slot]] = [None] * workers
        self.counters = {}
        self.rebuild()

    def _spawn(self, index: int) -> _Slot:
        try:
            return _Slot(index)
        except OSError as error:
            raise BackendBrokenError(
                f"cannot start local slot {index}: {error}") from error

    def _replace(self, slot: _Slot) -> None:
        """Kill ``slot``'s worker and put a fresh slot in its place."""
        slot.kill()
        try:
            self._slots[slot.index] = self._spawn(slot.index)
        except BackendBrokenError:
            self._slots[slot.index] = None

    def _owner(self, handle) -> Optional[_Slot]:
        return next((s for s in self.slots() if s.future is handle), None)

    def slots(self) -> List[_Slot]:
        return [slot for slot in self._slots if slot is not None]

    def submit(self, slot: _Slot, fn, spec, lease: Optional[str] = None):
        try:
            slot.future = slot.pool.submit(fn, spec)
        except (BrokenProcessPool, OSError) as error:
            slot.kill()
            self._slots[slot.index] = None
            raise BackendBrokenError(str(error)) from error
        return slot.future

    def wait(self, timeout: float) -> Set[object]:
        busy = [slot.future for slot in self.slots()
                if slot.future is not None]
        if not busy:
            return set()
        return wait(busy, timeout=timeout, return_when=FIRST_COMPLETED)[0]

    def result(self, handle):
        slot = self._owner(handle)
        slot.future = None
        try:
            return handle.result()
        except BrokenProcessPool as error:
            self._replace(slot)
            raise WorkerLostError(
                f"worker process of {slot.label} died (BrokenProcessPool)",
                original=error) from error

    def forget(self, handle) -> None:
        slot = self._owner(handle)
        if slot is not None:
            self._replace(slot)

    def rebuild(self) -> None:
        for index, slot in enumerate(self._slots):
            if slot is None:
                try:
                    self._slots[index] = self._spawn(index)
                except BackendBrokenError:
                    pass

    def close(self) -> None:
        for slot in self.slots():
            slot.kill()
        self._slots = [None] * len(self._slots)

    def describe(self, handle) -> str:
        return self._owner(handle).label


# ------------------------------------------------------- worker backend

class _Connection:
    """One coordinator→worker TCP session."""

    def __init__(self, endpoint: Tuple[str, int], sock: socket.socket):
        self.endpoint = endpoint
        self.sock = sock
        self.handle: Optional["RemoteHandle"] = None
        #: Monotonic time of the last heartbeat (or dispatch).
        self.last_beat = 0.0

    @property
    def label(self) -> str:
        return f"{self.endpoint[0]}:{self.endpoint[1]}"

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


class RemoteHandle:
    """In-flight (or finished) remote cell; the WorkerBackend's handle."""

    __slots__ = ("lease", "label", "finished", "_result", "_error")

    def __init__(self, lease: str, label: str):
        self.lease = lease
        self.label = label
        self.finished = False
        self._result = None
        self._error: Optional[BaseException] = None

    def settle_ok(self, result) -> None:
        self.finished = True
        self._result = result

    def settle_error(self, error: BaseException) -> None:
        self.finished = True
        self._error = error


class WorkerBackend(ExecutorBackend):
    """Cells dispatched over TCP to ``repro worker`` processes.

    One connection per endpoint, one in-flight cell per connection.
    Capacity is the number of live connections and *shrinks* as workers
    die; dead endpoints are redialled once every connection is lost
    (``reconnects`` counter).
    A lease covers every dispatch: the worker heartbeats every
    ``heartbeat_interval`` seconds while computing, and a silent gap
    longer than ``lease_timeout`` expires the lease — the connection is
    declared wedged, dropped, and the cell requeued by the supervisor.

    Each connection is one slot; a reconnect is a new slot, since the
    worker process behind it may have been replaced.
    """

    leased = True

    def __init__(self, endpoints: Sequence[Tuple[str, int]],
                 lease_timeout: float = 10.0,
                 heartbeat_interval: float = 1.0,
                 connect_timeout: float = CONNECT_TIMEOUT):
        if not endpoints:
            raise ValueError("WorkerBackend needs at least one endpoint")
        self.endpoints: Tuple[Tuple[str, int], ...] = tuple(endpoints)
        self.lease_timeout = lease_timeout
        self.heartbeat_interval = heartbeat_interval
        self.connect_timeout = connect_timeout
        self._conns: Dict[Tuple[str, int], _Connection] = {}
        #: Endpoints refused for protocol-version skew: never retried.
        self._skewed: Dict[Tuple[str, int], str] = {}
        #: Per-endpoint monotonic time before which reconnects are not
        #: attempted, so a dead endpoint is not re-dialled every tick.
        self._retry_at: Dict[Tuple[str, int], float] = {}
        self.reconnect_cooldown = 1.0
        self._done: Set[RemoteHandle] = set()
        self.lease_observer = None
        self.counters = {
            "leases_granted": 0,
            "leases_expired": 0,
            "heartbeats": 0,
            "results": 0,
            "reconnects": 0,
            "worker_losses": 0,
            "corrupt_results": 0,
        }
        self._ever_connected = False

    # ------------------------------------------------------- connections

    def _connect(self, endpoint: Tuple[str, int]) -> Optional[_Connection]:
        if endpoint in self._skewed:
            return None
        if self._retry_at.get(endpoint, 0.0) > time.monotonic():
            return None
        try:
            sock, _ = connect(*endpoint, self.connect_timeout)
            sock.settimeout(None)
        except ProtocolVersionError as error:
            self._skewed[endpoint] = str(error)
            return None
        except (OSError, FrameError):
            self._retry_at[endpoint] = (time.monotonic()
                                        + self.reconnect_cooldown)
            return None
        self._retry_at.pop(endpoint, None)
        conn = _Connection(endpoint, sock)
        self._conns[endpoint] = conn
        if self._ever_connected:
            self.counters["reconnects"] += 1
        return conn

    def _drop(self, conn: _Connection) -> None:
        conn.close()
        self._conns.pop(conn.endpoint, None)

    def connect_all(self) -> int:
        """Connect every endpoint not currently live; returns live count."""
        for endpoint in self.endpoints:
            if endpoint not in self._conns:
                self._connect(endpoint)
        if self._conns:
            self._ever_connected = True
        return len(self._conns)

    def slots(self) -> List[_Connection]:
        return list(self._conns.values())

    @property
    def skewed(self) -> Dict[Tuple[str, int], str]:
        """Endpoints refused for version skew (doctor/diagnostics)."""
        return dict(self._skewed)

    # --------------------------------------------------------- dispatch

    def submit(self, slot: _Connection, fn, spec,
               lease: Optional[str] = None):
        """Send one cell to idle connection ``slot``; ``fn`` is unused."""
        handle = RemoteHandle(lease or lease_id(stable_digest(
            spec_to_wire(spec)), 1), slot.label)
        try:
            send_frame(slot.sock, {
                "type": "run",
                "lease": handle.lease,
                "heartbeat": self.heartbeat_interval,
                "spec": spec_to_wire(spec),
            })
        except OSError as error:
            self._drop(slot)
            raise BackendBrokenError(
                f"cannot dispatch to {slot.label}: {error}") from error
        slot.handle = handle
        slot.last_beat = time.monotonic()
        self.counters["leases_granted"] += 1
        return handle

    # ----------------------------------------------------------- events

    def wait(self, timeout: float) -> Set[RemoteHandle]:
        deadline = time.monotonic() + timeout
        while True:
            self._poll_sockets(max(deadline - time.monotonic(), 0.0))
            self._expire_leases()
            if self._done or time.monotonic() >= deadline:
                done, self._done = self._done, set()
                return done

    def _poll_sockets(self, timeout: float) -> None:
        conns = list(self._conns.values())
        if not conns:
            if timeout > 0:
                time.sleep(min(timeout, 0.05))
            return
        try:
            readable, _, _ = select.select(
                [c.sock for c in conns], [], [], timeout)
        except (OSError, ValueError):
            # A socket died between listing and selecting; poll each.
            readable = [c.sock for c in conns]
        by_sock = {c.sock: c for c in conns}
        for sock in readable:
            conn = by_sock.get(sock)
            if conn is not None and conn.endpoint in self._conns:
                self._read_one(conn)

    def _read_one(self, conn: _Connection) -> None:
        try:
            frame = recv_frame(conn.sock)
        except (OSError, FrameError) as error:
            self._lose(conn, f"connection to {conn.label} failed: {error}")
            return
        if frame is None:
            self._lose(conn, f"worker {conn.label} closed the connection")
            return
        kind = frame.get("type")
        handle = conn.handle
        if kind == "heartbeat":
            conn.last_beat = time.monotonic()
            self.counters["heartbeats"] += 1
            if handle is not None and self.lease_observer is not None:
                self.lease_observer("renew", handle)
            return
        if handle is None:
            return  # stray frame on an idle connection: ignore
        if kind == "result":
            encoded = frame.get("result")
            if stable_digest(encoded) != frame.get("digest"):
                self.counters["corrupt_results"] += 1
                handle.settle_error(ResultCorruptError(
                    f"result digest mismatch from {conn.label} "
                    f"(lease {handle.lease})"))
            else:
                from .result_cache import decode_result
                try:
                    handle.settle_ok(decode_result(encoded))
                    self.counters["results"] += 1
                except (KeyError, TypeError, ValueError) as error:
                    self.counters["corrupt_results"] += 1
                    handle.settle_error(ResultCorruptError(
                        f"undecodable result from {conn.label}: {error}"))
            conn.handle = None
            self._done.add(handle)
        elif kind == "error":
            handle.settle_error(RemoteCellError(
                f"{frame.get('error')} (on {conn.label})"))
            conn.handle = None
            self._done.add(handle)

    def _lose(self, conn: _Connection, message: str) -> None:
        handle = conn.handle
        self._drop(conn)
        if handle is not None and not handle.finished:
            self.counters["worker_losses"] += 1
            handle.settle_error(WorkerLostError(message))
            self._done.add(handle)

    def _expire_leases(self) -> None:
        now = time.monotonic()
        for conn in list(self._conns.values()):
            handle = conn.handle
            if handle is None:
                continue
            if now - conn.last_beat > self.lease_timeout:
                self.counters["leases_expired"] += 1
                handle.settle_error(LeaseExpiredError(
                    f"lease {handle.lease} on {conn.label} expired: no "
                    f"heartbeat for {self.lease_timeout:.3g}s"))
                if self.lease_observer is not None:
                    self.lease_observer("expire", handle)
                # The worker is wedged or partitioned: the connection
                # cannot be trusted for further dispatches.
                self._done.add(handle)
                self._drop(conn)

    # ---------------------------------------------------------- results

    def result(self, handle: RemoteHandle):
        if handle._error is not None:
            raise handle._error
        return handle._result

    def forget(self, handle: RemoteHandle) -> None:
        """Abandon one in-flight cell (timeout): drop its connection."""
        self._done.discard(handle)
        for conn in list(self._conns.values()):
            if conn.handle is handle:
                conn.handle = None
                self._drop(conn)

    def rebuild(self) -> None:
        for conn in list(self._conns.values()):
            self._drop(conn)
        self._done.clear()
        self._retry_at.clear()  # a deliberate rebuild re-dials everything
        self.connect_all()

    def close(self) -> None:
        for conn in list(self._conns.values()):
            self._drop(conn)
        self._done.clear()

    def describe(self, handle) -> str:
        return getattr(handle, "label", "worker")

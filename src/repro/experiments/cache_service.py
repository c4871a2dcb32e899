"""Shared result-cache service: ``repro cache-serve`` + client.

The content-addressed result cache (:mod:`repro.experiments.result_cache`)
is network-safe by construction — schema-v2 entries embed their key and a
digest of the payload, so any transport that moves verified encoded
payloads preserves bit-identical results.  This module makes the cache a
*service* instead of a shared filesystem:

* :func:`serve_cache` / ``repro cache-serve`` — a TCP server speaking the
  same length-prefixed, version-handshaked JSON frame protocol as the
  worker layer (:mod:`repro.experiments.backends`), serving ``load`` /
  ``store`` / ``probe`` / ``stats`` requests against one local cache
  directory.  Stores are digest-checked server-side (a corrupt upload is
  rejected, never persisted); corrupt on-disk entries are quarantined on
  read exactly as in the local cache.  One process serialises all
  writers, so this is how hosts share one cache: a shared filesystem is
  never needed.
* :class:`NetworkCacheClient` — slots in wherever
  :class:`~repro.experiments.result_cache.ResultCache` is used (selected
  via ``--cache-url`` or ``$REPRO_CACHE_URL``; see
  :func:`~repro.experiments.parallel.resolve_cache`).  An unreachable
  server degrades the client to *read-only local fallback* with one
  warning: hits are still served from the local cache directory, stores
  are skipped and counted.  A server that dies mid-sweep is retried with
  a reconnect cooldown, so a restarted server (crash drill) is picked
  back up; every failed RPC is just a cache miss — never a wrong number.

Wire grammar (after the ``hello`` exchange)::

    -> {"type": "load",  "key": K}
    <- {"type": "entry", "key": K, "hit": bool, "result": ..., "digest": D}
    -> {"type": "store", "key": K, "result": ..., "digest": D}
    <- {"type": "stored", "key": K, "ok": bool[, "error": ...]}
    -> {"type": "probe", "key": K}
    <- {"type": "probed", "key": K, "present": bool}
    -> {"type": "stats"}
    <- {"type": "stats", "counters": {...}, "directory": ...}

Protocol fault injection ports directly: ``REPRO_FAULT_INJECT`` clauses
targeting ``cache/serve`` (e.g. ``stall=cache/serve@5``, ``torn=cache/
serve-once``, ``corrupt=cache/serve-once``) make the server stall before
replying (the client times out → miss), tear a reply frame mid-send, or
flip the digest on a served entry (the client rejects it → miss).

Listening, the hello exchange, session threads and shutdown are the
shared :class:`~repro.experiments.backends.FrameServer`, and the client
dials through :func:`~repro.experiments.backends.connect`, which checks
that the peer really is a cache server; this module holds only the cache
semantics.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from ..common.hashing import stable_digest
from .backends import (
    CONNECT_TIMEOUT,
    PROTOCOL_VERSION,
    FrameError,
    FrameServer,
    ProtocolVersionError,
    connect,
    parse_endpoint,
    recv_frame,
    send_frame,
    send_torn,
    stall,
)
from .resilience import take_protocol_fault
from .result_cache import ResultCache, decode_result, encode_result

__all__ = [
    "CACHE_URL_ENV",
    "NetworkCacheClient",
    "cache_url_from_env",
    "is_cache_url",
    "parse_cache_url",
    "probe_cache_server",
    "serve_cache",
]

#: Environment variable selecting a cache server for every sweep
#: (equivalent to passing ``--cache-url`` everywhere).
CACHE_URL_ENV = "REPRO_CACHE_URL"

#: Per-RPC socket timeout: a stalled server must cost one bounded miss,
#: not a wedged sweep.
RPC_TIMEOUT = 10.0

#: Seconds between reconnect attempts once the server is unreachable —
#: a dead server costs one failed ``connect`` per cooldown, not per RPC.
RECONNECT_COOLDOWN = 1.0


class _FaultPoint:
    """Injection target for the cache server.

    :func:`~repro.experiments.resilience.take_protocol_fault` matches
    clauses by ``benchmark/predictor``; the cache server answers to the
    fixed pair ``cache/serve`` so existing ``REPRO_FAULT_INJECT`` grammar
    selects it with no parser changes.
    """

    benchmark = "cache"
    predictor = "serve"


# repro-lint: allow(conc-mutable-global) -- immutable class-attr shim, no instance state
_FAULT_POINT = _FaultPoint()


# ------------------------------------------------------------- URL plumbing

def is_cache_url(text: str) -> bool:
    """Whether a cache spec string names a server rather than a directory."""
    return "://" in text


def parse_cache_url(url: str) -> Tuple[str, int]:
    """``tcp://host:port`` (or bare ``host:port``) → ``(host, port)``."""
    if is_cache_url(url):
        scheme, _, rest = url.partition("://")
        if scheme != "tcp":
            raise ValueError(
                f"bad cache url {url!r}: only tcp:// is supported")
    else:
        rest = url
    try:
        return parse_endpoint(rest)
    except ValueError as error:
        raise ValueError(f"bad cache url {url!r}: {error}") from None


def cache_url_from_env() -> Optional[str]:
    """``$REPRO_CACHE_URL`` when set and non-empty."""
    return os.environ.get(CACHE_URL_ENV) or None


# ------------------------------------------------------------------ server

class _CacheServer:
    """Shared state behind one ``serve_cache`` listener.

    One lock serialises every cache operation: the on-disk cache below is
    plain :class:`ResultCache` and this single process is the only
    writer.
    """

    def __init__(self, directory: Union[str, Path, None]):
        self.cache = ResultCache(directory)
        self.lock = threading.Lock()
        self.sessions = 0
        self.loads = 0
        self.stores = 0
        self.rejected_stores = 0
        self.probes = 0

    def handle(self, request: Dict) -> Dict:
        op = request.get("type")
        key = request.get("key")
        if op == "load" and isinstance(key, str):
            with self.lock:
                self.loads += 1
                encoded = self.cache.load_encoded(key)
            if encoded is None:
                return {"type": "entry", "key": key, "hit": False,
                        "result": None, "digest": None}
            return {"type": "entry", "key": key, "hit": True,
                    "result": encoded, "digest": stable_digest(encoded)}
        if op == "store" and isinstance(key, str):
            encoded = request.get("result")
            error = self._validate_store(encoded, request.get("digest"))
            if error is not None:
                with self.lock:
                    self.rejected_stores += 1
                return {"type": "stored", "key": key, "ok": False,
                        "error": error}
            with self.lock:
                self.stores += 1
                self.cache.store_encoded(key, encoded)
            return {"type": "stored", "key": key, "ok": True}
        if op == "probe" and isinstance(key, str):
            with self.lock:
                self.probes += 1
                present = self.cache.contains(key)
            return {"type": "probed", "key": key, "present": present}
        if op == "stats":
            with self.lock:
                counters = dict(self.cache.counters)
                counters.update(sessions=self.sessions, loads=self.loads,
                                server_stores=self.stores,
                                rejected_stores=self.rejected_stores,
                                probes=self.probes)
            return {"type": "stats", "counters": counters,
                    "directory": str(self.cache.directory)}
        return {"type": "error", "error": f"unknown request {op!r}"}

    @staticmethod
    def _validate_store(encoded: object, digest: object) -> Optional[str]:
        """Server-side integrity check: never persist a corrupt upload."""
        if not isinstance(encoded, dict):
            return "result is not an object"
        if digest != stable_digest(encoded):
            return "result digest mismatch"
        try:
            decode_result(encoded)
        except (ValueError, KeyError, TypeError) as error:
            return f"result does not decode: {error}"
        return None


def serve_cache(host: str = "127.0.0.1", port: int = 0,
                directory: Union[str, Path, None] = None,
                ready_file: Optional[str] = None,
                max_sessions: Optional[int] = None,
                stop: Optional[threading.Event] = None,
                quiet: bool = False) -> int:
    """Listen for cache clients; returns the bound port.

    Each connection gets its own session thread (coordinators multiplex
    freely); all of them share one
    :class:`ResultCache` behind one lock.  ``port=0`` binds an ephemeral
    port, written as ``host:port`` to ``ready_file`` when given;
    ``max_sessions`` exits after that many client sessions (tests);
    ``stop`` is polled between ``accept`` attempts (in-process use).
    """
    state = _CacheServer(directory)
    server = FrameServer("cache-server",
                         lambda conn: _session(conn, state), host, port)
    if not quiet:
        print(f"[repro-cache] serving {state.cache.directory} on "
              f"{host}:{server.port} (protocol v{PROTOCOL_VERSION})",
              flush=True)
    return server.serve(ready_file, max_sessions, stop)


def _session(conn, state: _CacheServer) -> None:
    """One client session after the hello exchange: serve requests."""
    with state.lock:
        state.sessions += 1
    while True:
        request = recv_frame(conn)
        if request is None:
            return
        fault = None
        if request.get("type") in ("load", "store"):
            fault = take_protocol_fault(_FAULT_POINT)
        if fault is not None and fault.kind == "stall":
            # A wedged server: the client's RPC timeout expires and the
            # operation degrades to a miss / skipped store.
            stall(fault)
        reply = state.handle(request)
        if fault is not None and fault.kind == "torn":
            send_torn(conn)
            return
        if (fault is not None and fault.kind == "corrupt"
                and reply.get("type") == "entry" and reply.get("hit")):
            reply = dict(reply, digest="0" * len(reply["digest"]))
        send_frame(conn, reply)


# ------------------------------------------------------------------ client

def probe_cache_server(host: str, port: int,
                       timeout: float = CONNECT_TIMEOUT) -> Dict:
    """Connect + handshake + one ``stats`` round trip (``repro doctor``).

    Raises ``OSError`` when unreachable, :class:`ProtocolVersionError` on
    skew and :class:`FrameError` when the peer is not a cache server.
    """
    sock, _ = connect(host, port, "cache-client", "cache-server", timeout)
    with sock:
        send_frame(sock, {"type": "stats"})
        reply = recv_frame(sock)
        if reply is None or reply.get("type") != "stats":
            raise FrameError(f"expected stats frame, got {reply!r}")
        return reply


class NetworkCacheClient:
    """A :class:`ResultCache`-shaped client for a ``repro cache-serve``.

    Drop-in for the suite layer: same ``load``/``store``/``contains``/
    ``probe_writable`` surface and the same hit/miss/store counters, so
    :func:`~repro.experiments.parallel.resolve_cache` and ``execute_cells``
    need no special cases beyond construction.  Every reply carrying a
    payload is digest-verified client-side (wire corruption → miss, never
    a wrong number).

    Failure semantics: an unreachable server at resolve time flips the
    client ``read_only`` (one warning, stores skipped) while ``load``
    falls back to the *read-only local* cache directory; a server lost
    mid-sweep costs misses/skipped stores until the reconnect cooldown
    readmits it — a restarted server is picked up transparently.
    """

    def __init__(self, url: str,
                 fallback_directory: Union[str, Path, None] = None,
                 rpc_timeout: float = RPC_TIMEOUT,
                 connect_timeout: float = CONNECT_TIMEOUT,
                 reconnect_cooldown: float = RECONNECT_COOLDOWN):
        self.url = url if is_cache_url(url) else f"tcp://{url}"
        self.host, self.port = parse_cache_url(self.url)
        self.fallback = ResultCache(fallback_directory, read_only=True)
        #: Local fallback directory (for warnings and doctor output).
        self.directory = self.fallback.directory
        self.read_only = False
        self.rpc_timeout = float(rpc_timeout)
        self.connect_timeout = float(connect_timeout)
        self.reconnect_cooldown = float(reconnect_cooldown)
        # ResultCache-compatible counters…
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.quarantined = 0  # quarantining happens server-side
        # …plus network-specific ones.
        self.rpc_errors = 0
        self.reconnects = 0
        self.corrupt_replies = 0
        self.rejected_stores = 0
        self.fallback_hits = 0
        self._sock: Optional[socket.socket] = None
        self._lock = threading.Lock()
        self._retry_at = 0.0
        self._connected_once = False
        self._last_error: Optional[str] = None
        self._fatal: Optional[str] = None

    # -- connection management

    def _ensure_conn_locked(self) -> Tuple[Optional[socket.socket],
                                           Optional[str]]:
        if self._sock is not None:
            return self._sock, None
        if self._fatal is not None:
            return None, self._fatal
        now = time.monotonic()
        if now < self._retry_at:
            return None, self._last_error or "in reconnect cooldown"
        try:
            sock, _ = connect(self.host, self.port, "cache-client",
                              "cache-server", self.connect_timeout)
            sock.settimeout(self.rpc_timeout)
        except (ProtocolVersionError, FrameError) as error:
            # Wrong protocol or wrong kind of peer: permanent.
            self._fatal = str(error)
            return None, self._fatal
        except OSError as error:
            self._retry_at = now + self.reconnect_cooldown
            self._last_error = f"{type(error).__name__}: {error}"
            return None, self._last_error
        if self._connected_once:
            self.reconnects += 1
        self._connected_once = True
        self._sock = sock
        return sock, None

    def _drop_locked(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
        self._sock = None

    def close(self) -> None:
        with self._lock:
            self._drop_locked()

    def _rpc(self, request: Dict) -> Optional[Dict]:
        """One request/reply round trip, retrying once across a reconnect.

        The retry covers exactly the restarted-server case: a send on a
        half-dead socket fails, the reconnect succeeds, the request runs.
        A still-dead server fails the reconnect (entering cooldown) and
        the operation reports unreachable (→ miss / skipped store).
        """
        with self._lock:
            for _attempt in (0, 1):
                sock, _error = self._ensure_conn_locked()
                if sock is None:
                    return None
                try:
                    send_frame(sock, request)
                    reply = recv_frame(sock)
                    if reply is None:
                        raise FrameError("cache server closed mid-rpc")
                    return reply
                except (OSError, FrameError):
                    self.rpc_errors += 1
                    self._drop_locked()
                    continue
            return None

    # -- ResultCache-compatible surface

    def probe_writable(self) -> Optional[str]:
        """None when the server answers, else the failure reason.

        :func:`~repro.experiments.parallel.resolve_cache` calls this once
        per sweep; a failure degrades the client to read-only local
        fallback with a single warning.
        """
        with self._lock:
            sock, error = self._ensure_conn_locked()
        if sock is None:
            return error or f"cache server {self.url} unreachable"
        return None

    def contains(self, key: str) -> bool:
        reply = self._rpc({"type": "probe", "key": key})
        if reply is None or reply.get("type") != "probed":
            return self.fallback.contains(key)
        return bool(reply.get("present"))

    def load(self, key: str) -> Optional[object]:
        """Decoded result from the server, or None.

        Unreachable server → read-only local fallback lookup.  A reply
        failing digest verification or decode is counted
        (``corrupt_replies``) and treated as a miss.
        """
        reply = self._rpc({"type": "load", "key": key})
        if reply is None or reply.get("type") != "entry":
            result = self.fallback.load(key)
            if result is not None:
                self.fallback_hits += 1
                self.hits += 1
                return result
            self.misses += 1
            return None
        if not reply.get("hit"):
            self.misses += 1
            return None
        encoded = reply.get("result")
        try:
            if not isinstance(encoded, dict):
                raise ValueError("entry payload is not an object")
            if reply.get("digest") != stable_digest(encoded):
                raise ValueError("entry digest mismatch")
            result = decode_result(encoded)
        except (ValueError, KeyError, TypeError):
            self.corrupt_replies += 1
            self.misses += 1
            return None
        self.hits += 1
        return result

    def store(self, key: str, result: object) -> None:
        """Upload one result; unreachable/rejected stores are counted only.

        ``read_only`` (set at resolve time when the server was already
        down) skips the RPC entirely, mirroring the local cache.
        """
        if self.read_only:
            return
        encoded = encode_result(result)
        reply = self._rpc({"type": "store", "key": key, "result": encoded,
                           "digest": stable_digest(encoded)})
        if reply is None or reply.get("type") != "stored":
            return
        if reply.get("ok"):
            self.stores += 1
        else:
            self.rejected_stores += 1

    def stats(self) -> Optional[Dict]:
        """Server-side counter snapshot, or None when unreachable."""
        reply = self._rpc({"type": "stats"})
        if reply is None or reply.get("type") != "stats":
            return None
        return reply

    @property
    def counters(self) -> Dict[str, int]:
        """Counter snapshot for metrics sweep records and doctor output."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "quarantined": self.quarantined,
            "rpc_errors": self.rpc_errors,
            "reconnects": self.reconnects,
            "corrupt_replies": self.corrupt_replies,
            "rejected_stores": self.rejected_stores,
            "fallback_hits": self.fallback_hits,
        }

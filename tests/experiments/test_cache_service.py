"""Tests for the shared result-cache service and its client.

The invariant under test everywhere: moving cache traffic over the wire
never changes a number.  Every failure mode — unreachable server, server
restart, torn/stalled/corrupt replies, rejected uploads — degrades to a
cache miss or a skipped store, both of which recompute bit-identical
results.
"""

import socket
import threading
import time

import pytest

from repro.core.config import GOLDEN_COVE
from repro.experiments.backends import (
    PROTOCOL_VERSION,
    FrameError,
    recv_frame,
    send_frame,
)
from repro.experiments.cache_service import (
    CACHE_URL_ENV,
    NetworkCacheClient,
    cache_url_from_env,
    is_cache_url,
    parse_cache_url,
    probe_cache_server,
    serve_cache,
)
from repro.common.hashing import stable_digest
from repro.experiments.parallel import CellSpec, execute_cells, resolve_cache
from repro.experiments.result_cache import (
    ResultCache,
    cell_key,
    encode_result,
)

from .test_result_cache import _sample_accuracy_result


class _Server:
    """One in-thread ``serve_cache`` with a deterministic lifecycle."""

    def __init__(self, directory, tmp_path, port=0):
        self.directory = directory
        self.stop = threading.Event()
        ready = tmp_path / f"cache-{port}-{id(self)}.ready"
        self.thread = threading.Thread(
            target=serve_cache,
            kwargs=dict(port=port, directory=directory,
                        ready_file=str(ready), stop=self.stop, quiet=True),
            daemon=True)
        self.thread.start()
        deadline = time.monotonic() + 10.0
        while not ready.exists():
            assert time.monotonic() < deadline, "cache server never ready"
            time.sleep(0.01)
        host, port_text = ready.read_text().strip().rsplit(":", 1)
        self.host, self.port = host, int(port_text)

    @property
    def url(self):
        return f"tcp://{self.host}:{self.port}"

    def shutdown(self):
        self.stop.set()
        self.thread.join(timeout=10)
        assert not self.thread.is_alive()


@pytest.fixture
def server(tmp_path):
    handle = _Server(tmp_path / "served", tmp_path)
    yield handle
    handle.shutdown()


def _free_port():
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


KEY = "a" * 64


# ------------------------------------------------------------ URL plumbing

class TestUrlPlumbing:
    def test_is_cache_url(self):
        assert is_cache_url("tcp://h:1")
        assert not is_cache_url("/some/dir")
        assert not is_cache_url("relative/dir")

    def test_parse_cache_url(self):
        assert parse_cache_url("tcp://h:9001") == ("h", 9001)
        assert parse_cache_url("tcp://[::1]:9001") == ("::1", 9001)

    @pytest.mark.parametrize("bad", ["http://h:1", "tcp://h:0",
                                     "tcp://h:x", "tcp://h"])
    def test_rejects_bad_urls(self, bad):
        with pytest.raises(ValueError):
            parse_cache_url(bad)

    def test_env_selection(self, monkeypatch):
        monkeypatch.delenv(CACHE_URL_ENV, raising=False)
        assert cache_url_from_env() is None
        monkeypatch.setenv(CACHE_URL_ENV, "tcp://h:1")
        assert cache_url_from_env() == "tcp://h:1"

    def test_client_normalises_bare_endpoint(self, tmp_path):
        client = NetworkCacheClient("h:9001", fallback_directory=tmp_path)
        assert client.url == "tcp://h:9001"
        assert (client.host, client.port) == ("h", 9001)


# ------------------------------------------------------- server round trip

class TestServerRoundTrip:
    def test_store_then_load_hit(self, server, tmp_path):
        client = NetworkCacheClient(server.url,
                                    fallback_directory=tmp_path / "local")
        try:
            original = _sample_accuracy_result()
            assert client.load(KEY) is None
            client.store(KEY, original)
            assert client.contains(KEY)
            loaded = client.load(KEY)
            assert loaded.to_dict() == original.to_dict()
            assert (client.misses, client.stores, client.hits) == (1, 1, 1)
            assert client.rejected_stores == 0
        finally:
            client.close()

    def test_entry_shared_across_clients(self, server, tmp_path):
        writer = NetworkCacheClient(server.url,
                                    fallback_directory=tmp_path / "w")
        reader = NetworkCacheClient(server.url,
                                    fallback_directory=tmp_path / "r")
        try:
            original = _sample_accuracy_result()
            writer.store(KEY, original)
            assert reader.load(KEY).to_dict() == original.to_dict()
        finally:
            writer.close()
            reader.close()

    def test_entry_lands_in_served_directory(self, server, tmp_path):
        client = NetworkCacheClient(server.url,
                                    fallback_directory=tmp_path / "local")
        try:
            client.store(KEY, _sample_accuracy_result())
        finally:
            client.close()
        # The server's on-disk entry is a plain schema-v2 cache file:
        # a local ResultCache opened on the directory verifies and loads
        # it, so server-side and filesystem sharing are interchangeable.
        local = ResultCache(server.directory)
        assert local.load(KEY) is not None

    def test_probe_and_stats(self, server, tmp_path):
        client = NetworkCacheClient(server.url,
                                    fallback_directory=tmp_path / "local")
        try:
            client.store(KEY, _sample_accuracy_result())
            client.load(KEY)
        finally:
            client.close()
        stats = probe_cache_server(server.host, server.port)
        counters = stats["counters"]
        assert counters["server_stores"] == 1
        assert counters["loads"] >= 1
        assert stats["directory"] == str(server.directory)

    def test_probe_writable_none_when_reachable(self, server, tmp_path):
        client = NetworkCacheClient(server.url,
                                    fallback_directory=tmp_path / "local")
        try:
            assert client.probe_writable() is None
        finally:
            client.close()


# ----------------------------------------------- server-side verification

def _raw_session(server):
    sock = socket.create_connection((server.host, server.port), timeout=5.0)
    sock.settimeout(5.0)
    send_frame(sock, {"type": "hello", "version": PROTOCOL_VERSION,
                      "role": "cache-client"})
    hello = recv_frame(sock)
    assert hello["role"] == "cache-server"
    return sock


class TestServerSideVerification:
    def test_store_with_wrong_digest_is_rejected(self, server):
        encoded = encode_result(_sample_accuracy_result())
        sock = _raw_session(server)
        try:
            send_frame(sock, {"type": "store", "key": KEY,
                              "result": encoded, "digest": "0" * 64})
            reply = recv_frame(sock)
        finally:
            sock.close()
        assert reply["type"] == "stored" and reply["ok"] is False
        assert "digest" in reply["error"]
        assert not ResultCache(server.directory).contains(KEY)

    def test_store_of_undecodable_result_is_rejected(self, server):
        payload = {"kind": "mystery", "data": {}}
        sock = _raw_session(server)
        try:
            send_frame(sock, {"type": "store", "key": KEY,
                              "result": payload,
                              "digest": stable_digest(payload)})
            reply = recv_frame(sock)
        finally:
            sock.close()
        assert reply["ok"] is False
        assert not ResultCache(server.directory).contains(KEY)

    def test_client_counts_rejected_store(self, server, tmp_path,
                                          monkeypatch):
        import repro.experiments.cache_service as cache_service

        client = NetworkCacheClient(server.url,
                                    fallback_directory=tmp_path / "local")
        # Sabotage the upload in flight, after the client computed its
        # digest (the in-process server shares the module, so patching
        # the digest function itself would fool both sides equally).
        real_send = cache_service.send_frame

        def corrupting_send(sock, frame, *args, **kwargs):
            if frame.get("type") == "store":
                frame = dict(frame, digest="f" * 64)
            return real_send(sock, frame, *args, **kwargs)

        monkeypatch.setattr(cache_service, "send_frame", corrupting_send)
        try:
            client.store(KEY, _sample_accuracy_result())
        finally:
            client.close()
        assert client.rejected_stores == 1
        assert client.stores == 0
        assert not ResultCache(server.directory).contains(KEY)

    def test_unknown_request_type_is_answered_not_fatal(self, server):
        sock = _raw_session(server)
        try:
            send_frame(sock, {"type": "mystery"})
            reply = recv_frame(sock)
            assert reply["type"] == "error"
            # The session survives: a follow-up probe still answers.
            send_frame(sock, {"type": "probe", "key": KEY})
            assert recv_frame(sock)["type"] == "probed"
        finally:
            sock.close()

    def test_corrupt_disk_entry_is_quarantined_served_as_miss(
            self, server, tmp_path):
        client = NetworkCacheClient(server.url,
                                    fallback_directory=tmp_path / "local")
        try:
            client.store(KEY, _sample_accuracy_result())
            entry = ResultCache(server.directory).path_for(KEY)
            entry.write_text("garbage {{{")
            assert client.load(KEY) is None
            assert not entry.exists()
            quarantined = (ResultCache(server.directory).quarantine_dir
                           / entry.name)
            assert quarantined.read_text() == "garbage {{{"
        finally:
            client.close()


# ------------------------------------------------- unreachable + fallback

class TestFallback:
    def test_unreachable_server_probe_reports_error(self, tmp_path):
        client = NetworkCacheClient(f"tcp://127.0.0.1:{_free_port()}",
                                    fallback_directory=tmp_path,
                                    connect_timeout=0.5)
        try:
            assert client.probe_writable() is not None
        finally:
            client.close()

    def test_read_only_fallback_serves_local_hits(self, tmp_path):
        local = ResultCache(tmp_path / "warm")
        original = _sample_accuracy_result()
        local.store(KEY, original)
        client = NetworkCacheClient(f"tcp://127.0.0.1:{_free_port()}",
                                    fallback_directory=tmp_path / "warm",
                                    connect_timeout=0.5,
                                    reconnect_cooldown=30.0)
        client.read_only = True  # what resolve_cache does on probe failure
        try:
            loaded = client.load(KEY)
            assert loaded.to_dict() == original.to_dict()
            assert client.fallback_hits == 1
            client.store("b" * 64, original)  # skipped, not an error
            assert client.stores == 0
            assert not local.contains("b" * 64)
        finally:
            client.close()

    def test_resolve_cache_degrades_with_one_warning(self, tmp_path,
                                                     monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "fallback"))
        url = f"tcp://127.0.0.1:{_free_port()}"
        with pytest.warns(RuntimeWarning, match="falling back to read-only"):
            store = resolve_cache(url)
        try:
            assert isinstance(store, NetworkCacheClient)
            assert store.read_only
        finally:
            store.close()

    def test_resolve_cache_true_uses_env_url(self, server, monkeypatch,
                                             tmp_path):
        monkeypatch.setenv(CACHE_URL_ENV, server.url)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "local"))
        store = resolve_cache(True)
        try:
            assert isinstance(store, NetworkCacheClient)
            assert store.url == server.url
            assert not store.read_only
        finally:
            store.close()

    def test_wrong_peer_is_fatal_not_retried(self, tmp_path):
        from repro.experiments.worker import serve as serve_worker

        stop = threading.Event()
        ready = tmp_path / "worker.ready"
        thread = threading.Thread(
            target=serve_worker,
            kwargs=dict(port=0, ready_file=str(ready), stop=stop,
                        quiet=True),
            daemon=True)
        thread.start()
        deadline = time.monotonic() + 10.0
        while not ready.exists():
            assert time.monotonic() < deadline
            time.sleep(0.01)
        host, port = ready.read_text().strip().rsplit(":", 1)
        client = NetworkCacheClient(f"tcp://{host}:{port}",
                                    fallback_directory=tmp_path / "local")
        try:
            error = client.probe_writable()
            assert error is not None and "not a cache server" in error
            assert client.load(KEY) is None  # falls back, never crashes
        finally:
            client.close()
            stop.set()
            thread.join(timeout=5)


# ------------------------------------------------------- restart recovery

class TestRestartRecovery:
    def test_client_survives_server_restart(self, tmp_path):
        directory = tmp_path / "served"
        first = _Server(directory, tmp_path)
        client = NetworkCacheClient(first.url,
                                    fallback_directory=tmp_path / "local",
                                    reconnect_cooldown=0.05)
        try:
            original = _sample_accuracy_result()
            client.store(KEY, original)
            port = first.port
            first.shutdown()
            # Mid-sweep outage: the RPC fails, degrades to a miss.
            assert client.load(KEY) is None
            assert client.rpc_errors >= 1
            # Same port, same directory — the crash-drill restart.
            second = _Server(directory, tmp_path, port=port)
            try:
                deadline = time.monotonic() + 10.0
                loaded = None
                while loaded is None and time.monotonic() < deadline:
                    time.sleep(0.05)  # let the reconnect cooldown lapse
                    loaded = client.load(KEY)
                assert loaded is not None
                assert loaded.to_dict() == original.to_dict()
                assert client.reconnects >= 1
            finally:
                second.shutdown()
        finally:
            client.close()


# ------------------------------------------------------- fault injection

class TestFaultInjection:
    @pytest.fixture
    def warm(self, server, tmp_path):
        client = NetworkCacheClient(server.url,
                                    fallback_directory=tmp_path / "local",
                                    rpc_timeout=0.5,
                                    reconnect_cooldown=0.05)
        client.store(KEY, _sample_accuracy_result())
        assert client.stores == 1
        yield client
        client.close()

    def test_stall_costs_a_bounded_miss(self, warm, monkeypatch):
        # A persistently wedged server: every attempt stalls past the
        # client RPC timeout, so the load degrades to a bounded miss.
        monkeypatch.setenv("REPRO_FAULT_INJECT", "stall=cache/serve@1.0")
        started = time.monotonic()
        assert warm.load(KEY) is None
        assert time.monotonic() - started < 10.0
        assert warm.rpc_errors == 2  # first attempt + the in-call retry
        monkeypatch.delenv("REPRO_FAULT_INJECT")
        assert warm.load(KEY) is not None  # healthy server serves again

    def test_torn_reply_absorbed_by_reconnect_retry(self, warm,
                                                    monkeypatch, tmp_path):
        # A single torn frame costs one reconnect, not a miss: the
        # in-call retry replays the request on a fresh connection.
        latch = tmp_path / "torn.latch"
        monkeypatch.setenv("REPRO_FAULT_INJECT",
                           f"torn-once=cache/serve@{latch}")
        assert warm.load(KEY) is not None
        assert warm.rpc_errors == 1
        assert latch.exists()  # the fault fired exactly once

    def test_corrupt_reply_rejected_client_side(self, warm, monkeypatch,
                                                tmp_path):
        latch = tmp_path / "corrupt.latch"
        monkeypatch.setenv("REPRO_FAULT_INJECT",
                           f"corrupt-once=cache/serve@{latch}")
        assert warm.load(KEY) is None  # digest check → miss, not garbage
        assert warm.corrupt_replies == 1
        monkeypatch.delenv("REPRO_FAULT_INJECT")
        assert warm.load(KEY) is not None  # entry itself was never harmed


# ------------------------------------------------ execute_cells integration

SPECS = [
    CellSpec(mode="accuracy", benchmark="lbm", num_uops=3_000,
             predictor="mascot"),
    CellSpec(mode="accuracy", benchmark="lbm", num_uops=3_000,
             predictor="phast"),
]


class TestExecuteCellsIntegration:
    def test_network_cache_warms_like_local(self, server, monkeypatch,
                                            tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "local"))
        cold = execute_cells(SPECS, cache=server.url, journal=None)
        warm = execute_cells(SPECS, cache=server.url, journal=None)
        serial = execute_cells(SPECS, cache=None, journal=None)
        for a, b, c in zip(cold, warm, serial):
            assert a.to_dict() == b.to_dict() == c.to_dict()
        stats = probe_cache_server(server.host, server.port)
        assert stats["counters"]["server_stores"] == len(SPECS)
        # The warm sweep computed nothing: every load after the first
        # sweep hit the server.
        assert stats["counters"]["loads"] >= 2 * len(SPECS)

    def test_cell_key_addresses_server_entries(self, server, monkeypatch,
                                               tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "local"))
        execute_cells(SPECS, cache=server.url, journal=None)
        local = ResultCache(server.directory)
        for spec in SPECS:
            assert local.load(cell_key(spec)) is not None

    def test_true_cache_spec_honours_env_url(self, server, monkeypatch,
                                             tmp_path):
        monkeypatch.setenv(CACHE_URL_ENV, server.url)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "local"))
        spec = CellSpec(mode="timing", benchmark="exchange2",
                        num_uops=3_000, predictor="nosq",
                        config=GOLDEN_COVE)
        (first,) = execute_cells([spec], cache=True, journal=None)
        (second,) = execute_cells([spec], cache=True, journal=None)
        assert first.to_dict() == second.to_dict()
        stats = probe_cache_server(server.host, server.port)
        assert stats["counters"]["server_stores"] == 1


class TestProbeCacheServerErrors:
    def test_unreachable_raises_oserror(self):
        with pytest.raises(OSError):
            probe_cache_server("127.0.0.1", _free_port(), timeout=0.5)

    def test_wrong_peer_raises_frame_error(self, tmp_path):
        from repro.experiments.worker import serve as serve_worker

        stop = threading.Event()
        ready = tmp_path / "worker.ready"
        thread = threading.Thread(
            target=serve_worker,
            kwargs=dict(port=0, ready_file=str(ready), stop=stop,
                        quiet=True),
            daemon=True)
        thread.start()
        while not ready.exists():
            time.sleep(0.01)
        host, port = ready.read_text().strip().rsplit(":", 1)
        try:
            with pytest.raises(FrameError, match="not a cache server"):
                probe_cache_server(host, int(port))
        finally:
            stop.set()
            thread.join(timeout=5)

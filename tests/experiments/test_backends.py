"""Tests for the distributed executor backends and worker protocol.

Unit layers (framing, wire specs, endpoints, leases) run over
``socket.socketpair`` with no processes.  Integration layers launch real
``repro worker`` subprocesses on ephemeral ports and drive
:func:`execute_cells` over TCP; protocol faults (``stall``, ``torn``,
``corrupt``) and worker crashes are injected through the worker's
*subprocess* environment, so every fault genuinely crosses the network
boundary.  The golden tests at the end are the issue's acceptance
scenarios: kill a worker mid-grid, and separately SIGKILL the
coordinator mid-grid and ``--resume`` — both must produce results
bit-identical to an uninterrupted serial run.
"""

import json
import os
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

import repro
from repro.experiments.backends import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    FrameError,
    LocalPoolBackend,
    ProtocolVersionError,
    WorkerBackend,
    lease_id,
    parse_endpoints,
    probe_endpoint,
    recv_frame,
    send_frame,
    spec_from_wire,
    spec_to_wire,
)
from repro.experiments.journal import RunJournal
from repro.experiments.parallel import CellSpec, execute_cells
from repro.experiments.resilience import (
    CellFailure,
    FailureKind,
    ResiliencePolicy,
)
from repro.experiments.result_cache import encode_result
from repro.experiments.worker import serve
from repro.core.config import GOLDEN_COVE

SRC = Path(repro.__file__).resolve().parents[1]

N = 3_000


def _cell(benchmark, predictor="mascot", num_uops=N):
    return CellSpec(mode="accuracy", benchmark=benchmark, num_uops=num_uops,
                    predictor=predictor)


GRID = [_cell("exchange2"), _cell("lbm"), _cell("lbm", "phast"),
        _cell("perlbench1")]


def _encoded(results):
    return [encode_result(r) for r in results]


def _policy(**kwargs):
    kwargs.setdefault("retries", 2)
    kwargs.setdefault("backoff_base", 0.01)
    kwargs.setdefault("jitter", 0.0)
    return ResiliencePolicy(**kwargs)


# --------------------------------------------------------------- fixtures

@pytest.fixture(scope="module")
def serial_grid():
    """Uninterrupted serial reference for GRID (bit-identity oracle)."""
    return execute_cells(GRID)


@pytest.fixture
def workers(tmp_path):
    """Factory launching ``repro worker`` subprocesses on ephemeral ports.

    Returns ``launch(n, env_extra) -> (endpoints_csv, procs)``.  Fault
    specs go in ``env_extra`` so they apply only inside the workers —
    the coordinator (this process) stays clean, proving the fault
    crossed the wire.
    """
    procs = []

    def launch(n=2, env_extra=None):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        if env_extra:
            env.update(env_extra)
        batch = []
        ready_files = []
        for i in range(n):
            ready = tmp_path / f"worker-{len(procs)}-{i}.ready"
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "worker",
                 "--ready-file", str(ready)],
                env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL)
            procs.append(proc)
            batch.append(proc)
            ready_files.append(ready)
        addrs = []
        for ready, proc in zip(ready_files, batch):
            deadline = time.monotonic() + 30.0
            while not ready.exists():
                if proc.poll() is not None:
                    raise RuntimeError(
                        f"worker exited rc={proc.returncode} before ready")
                if time.monotonic() > deadline:
                    raise RuntimeError("worker never wrote its ready file")
                time.sleep(0.02)
            addrs.append(ready.read_text().strip())
        return ",".join(addrs), batch

    yield launch
    for proc in procs:
        if proc.poll() is None:
            proc.kill()
    for proc in procs:
        proc.wait(timeout=10)


@pytest.fixture
def inproc_worker(tmp_path):
    """One worker served from a daemon thread (for probe-level tests)."""
    stop = threading.Event()
    ready = tmp_path / "inproc.ready"
    thread = threading.Thread(
        target=serve,
        kwargs=dict(port=0, ready_file=str(ready), stop=stop, quiet=True),
        daemon=True)
    thread.start()
    deadline = time.monotonic() + 10.0
    while not ready.exists():
        assert time.monotonic() < deadline, "in-process worker never ready"
        time.sleep(0.01)
    host, port = ready.read_text().strip().rsplit(":", 1)
    yield host, int(port)
    stop.set()
    thread.join(timeout=5)


# ---------------------------------------------------------------- framing

class TestFraming:
    def test_round_trip(self):
        a, b = socket.socketpair()
        try:
            send_frame(a, {"type": "hello", "n": 7})
            assert recv_frame(b) == {"type": "hello", "n": 7}
        finally:
            a.close()
            b.close()

    def test_clean_eof_returns_none(self):
        a, b = socket.socketpair()
        a.close()
        try:
            assert recv_frame(b) is None
        finally:
            b.close()

    def test_torn_frame_raises(self):
        a, b = socket.socketpair()
        try:
            a.sendall(struct.pack(">I", 1 << 16) + b'{"type":')
            a.close()
            with pytest.raises(FrameError, match="torn"):
                recv_frame(b)
        finally:
            b.close()

    def test_oversized_header_raises(self):
        a, b = socket.socketpair()
        try:
            a.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
            with pytest.raises(FrameError):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_non_object_payload_raises(self):
        a, b = socket.socketpair()
        try:
            body = b"[1, 2, 3]"
            a.sendall(struct.pack(">I", len(body)) + body)
            with pytest.raises(FrameError):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_undecodable_payload_raises(self):
        a, b = socket.socketpair()
        try:
            body = b"\xff\xfe not json"
            a.sendall(struct.pack(">I", len(body)) + body)
            with pytest.raises(FrameError):
                recv_frame(b)
        finally:
            a.close()
            b.close()


class TestWireSpecs:
    @pytest.mark.parametrize("spec", GRID)
    def test_accuracy_round_trip(self, spec):
        wire = json.loads(json.dumps(spec_to_wire(spec)))
        assert spec_from_wire(wire) == spec

    def test_timing_spec_with_core_config_round_trips(self):
        spec = CellSpec(mode="timing", benchmark="lbm", num_uops=N,
                        predictor="mascot", config=GOLDEN_COVE)
        wire = json.loads(json.dumps(spec_to_wire(spec)))
        restored = spec_from_wire(wire)
        assert restored == spec
        assert restored.config == GOLDEN_COVE


class TestEndpoints:
    def test_parse(self):
        assert parse_endpoints("a:1, b:2") == (("a", 1), ("b", 2))

    @pytest.mark.parametrize("bad", ["", ",", "noport", "h:x", "h:"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_endpoints(bad)

    def test_bracketed_ipv6(self):
        assert parse_endpoints("[::1]:9001") == (("::1", 9001),)
        assert (parse_endpoints("[fe80::1]:1, [::1]:2")
                == (("fe80::1", 1), ("::1", 2)))

    def test_unbracketed_ipv6_names_the_fix(self):
        with pytest.raises(ValueError, match="bracket IPv6"):
            parse_endpoints("::1:9001")

    @pytest.mark.parametrize("bad", ["h:0", "h:-1", "h:65536", "h:100000",
                                     "[::1]:0"])
    def test_rejects_out_of_range_ports(self, bad):
        with pytest.raises(ValueError, match="port"):
            parse_endpoints(bad)

    def test_port_range_boundaries_accepted(self):
        assert parse_endpoints("h:1, i:65535") == (("h", 1), ("i", 65535))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="once"):
            parse_endpoints("a:1, b:2, a:1")

    def test_same_host_different_ports_is_fine(self):
        assert parse_endpoints("a:1, a:2") == (("a", 1), ("a", 2))


class TestLeaseIds:
    def test_deterministic_and_distinct(self):
        assert lease_id("k", 1) == lease_id("k", 1)
        assert lease_id("k", 1) != lease_id("k", 2)
        assert lease_id("k", 1) != lease_id("j", 1)
        assert lease_id("k", 1).startswith("lease-")


@contextmanager
def _impostor(version, role):
    """A listener answering every hello with ``version`` and ``role``.

    Stands in for any service that speaks the frame protocol's hello
    without being a current worker; yields its ``(host, port)``.
    """
    def answer(server, stop):
        server.settimeout(0.1)
        while not stop.is_set():
            try:
                conn, _ = server.accept()
            except socket.timeout:
                continue
            try:
                recv_frame(conn)
                send_frame(conn, {"type": "hello", "version": version,
                                  "role": role})
            except (OSError, FrameError):
                pass
            finally:
                conn.close()

    server = socket.socket()
    server.bind(("127.0.0.1", 0))
    server.listen(8)
    stop = threading.Event()
    thread = threading.Thread(target=answer, args=(server, stop),
                              daemon=True)
    thread.start()
    try:
        yield server.getsockname()
    finally:
        stop.set()
        thread.join(timeout=5)
        server.close()
    assert not thread.is_alive()


# ------------------------------------------------------- endpoint probing

class TestProbeEndpoint:
    def test_real_worker_answers_hello(self, inproc_worker):
        host, port = inproc_worker
        hello = probe_endpoint(host, port)
        assert hello["version"] == PROTOCOL_VERSION
        assert hello["role"] == "worker"

    def test_unreachable_port_raises_oserror(self):
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()  # nothing listens here any more
        with pytest.raises(OSError):
            probe_endpoint("127.0.0.1", port, timeout=1.0)

    def test_version_skew_raises(self):
        with _impostor(version=99, role="worker") as (host, port):
            with pytest.raises(ProtocolVersionError, match="protocol v99"):
                probe_endpoint(host, port)
            backend = WorkerBackend(((host, port),))
            backend.connect_all()
            try:
                assert backend.workers == 0
                assert backend.skewed
            finally:
                backend.close()

    def test_non_worker_endpoint_raises(self):
        def slammer(server, stop):
            server.settimeout(0.1)
            while not stop.is_set():
                try:
                    conn, _ = server.accept()
                except socket.timeout:
                    continue
                conn.close()  # speaks no protocol at all

        server = socket.socket()
        server.bind(("127.0.0.1", 0))
        server.listen(1)
        port = server.getsockname()[1]
        stop = threading.Event()
        thread = threading.Thread(target=slammer, args=(server, stop),
                                  daemon=True)
        thread.start()
        try:
            with pytest.raises((FrameError, OSError)):
                probe_endpoint("127.0.0.1", port)
        finally:
            stop.set()
            thread.join(timeout=5)
            server.close()


class TestWrongPeerRole:
    """A peer that answers the hello at the current protocol version but
    under another role must never pass as a worker."""

    @pytest.fixture
    def other_peer(self):
        with _impostor(version=PROTOCOL_VERSION, role="coordinator") as peer:
            yield peer

    def test_probe_endpoint_raises_frame_error(self, other_peer):
        with pytest.raises(FrameError, match="not a worker"):
            probe_endpoint(*other_peer)

    def test_doctor_reports_not_a_worker(self, other_peer):
        from repro.doctor import _check_worker_endpoints

        passed, message = _check_worker_endpoints("%s:%d" % other_peer)
        assert not passed
        assert "is not a repro worker" in message

    def test_worker_backend_refuses_before_dispatch(self, other_peer):
        backend = WorkerBackend((other_peer,))
        try:
            assert backend.connect_all() == 0
            assert backend.workers == 0
        finally:
            backend.close()

    def test_coordinator_dispatches_no_cell(self, other_peer, serial_grid):
        # No reachable worker: the grid degrades to inline execution
        # rather than sending cells to a peer that cannot run them.
        with pytest.warns(RuntimeWarning, match="degrading"):
            results = execute_cells(GRID, backend="%s:%d" % other_peer,
                                    policy=_policy())
        assert _encoded(results) == _encoded(serial_grid)


# --------------------------------------------- local backend golden parity

class TestLocalPoolBackend:
    def test_explicit_instance_matches_serial(self, serial_grid):
        backend = LocalPoolBackend(2)
        try:
            results = execute_cells(GRID, backend=backend)
        finally:
            backend.close()  # caller-owned: execute_cells must not close
        assert _encoded(results) == _encoded(serial_grid)

    def test_flags(self):
        backend = LocalPoolBackend(1)
        try:
            assert backend.attributable
            assert backend.isolates_failures
            assert not backend.leased
            assert backend.workers == 1
        finally:
            backend.close()


# ------------------------------------------------- distributed end to end

class TestDistributedExecution:
    def test_two_workers_bit_identical_to_serial(self, workers, serial_grid,
                                                 tmp_path):
        endpoints, _ = workers(2)
        journal = RunJournal(tmp_path / "journals")
        results = execute_cells(GRID, backend=endpoints, journal=journal,
                                policy=_policy())
        assert _encoded(results) == _encoded(serial_grid)
        # Leases were granted and cleanly discharged: nothing in flight.
        state = journal.load(journal.last_run_id)
        assert len(state.completed) == len(GRID)
        assert state.leased == {}
        lines = journal.path_for(journal.last_run_id).read_text()
        grants = [json.loads(l) for l in lines.splitlines()
                  if '"lease"' in l and '"grant"' in l]
        assert len(grants) == len(GRID)

    def test_worker_flags(self, workers):
        endpoints, _ = workers(1)
        backend = WorkerBackend(parse_endpoints(endpoints))
        try:
            assert backend.attributable
            assert backend.isolates_failures
            assert backend.leased
            assert backend.connect_all() == 1
        finally:
            backend.close()

    def test_remote_cell_error_marks_only_that_cell(self, workers,
                                                    serial_grid):
        endpoints, _ = workers(2, env_extra={
            "REPRO_FAULT_INJECT": "error=lbm/phast"})
        results = execute_cells(
            GRID, backend=endpoints,
            policy=_policy(retries=1, fail_fast=False))
        assert isinstance(results[2], CellFailure)
        assert results[2].kind is FailureKind.ERROR
        assert "injected" in results[2].message
        ok = [r for i, r in enumerate(results) if i != 2]
        want = [r for i, r in enumerate(serial_grid) if i != 2]
        assert _encoded(ok) == _encoded(want)


class TestProtocolFaults:
    """Each injected fault crosses the wire once, then the retry succeeds."""

    def test_crash_once_worker_lost_then_recovers(self, workers, serial_grid,
                                                  tmp_path):
        latch = tmp_path / "crash.latch"
        endpoints, procs = workers(2, env_extra={
            "REPRO_FAULT_INJECT": f"crash-once=lbm/phast@{latch}"})
        results = execute_cells(GRID, backend=endpoints, policy=_policy())
        assert _encoded(results) == _encoded(serial_grid)
        assert latch.exists()  # the fault really fired...
        time.sleep(0.1)
        assert any(p.poll() is not None for p in procs)  # ...and killed one

    def test_stall_once_expires_lease_then_recovers(self, workers,
                                                    serial_grid, tmp_path):
        latch = tmp_path / "stall.latch"
        endpoints, _ = workers(2, env_extra={
            "REPRO_FAULT_INJECT": f"stall-once=lbm/phast@{latch}"})
        journal = RunJournal(tmp_path / "journals")
        results = execute_cells(
            GRID, backend=endpoints, journal=journal,
            policy=_policy(lease_timeout=2.0, heartbeat_interval=0.25))
        assert _encoded(results) == _encoded(serial_grid)
        lines = journal.path_for(journal.last_run_id).read_text()
        expires = [json.loads(l) for l in lines.splitlines()
                   if '"expire"' in l]
        assert expires  # the lease genuinely lapsed before the retry

    def test_torn_once_worker_lost_then_recovers(self, workers, serial_grid,
                                                 tmp_path):
        latch = tmp_path / "torn.latch"
        endpoints, _ = workers(2, env_extra={
            "REPRO_FAULT_INJECT": f"torn-once=lbm/phast@{latch}"})
        results = execute_cells(GRID, backend=endpoints, policy=_policy())
        assert _encoded(results) == _encoded(serial_grid)
        assert latch.exists()

    def test_corrupt_once_digest_mismatch_then_recovers(self, workers,
                                                        serial_grid,
                                                        tmp_path):
        latch = tmp_path / "corrupt.latch"
        endpoints, _ = workers(2, env_extra={
            "REPRO_FAULT_INJECT": f"corrupt-once=lbm/phast@{latch}"})
        results = execute_cells(GRID, backend=endpoints, policy=_policy())
        assert _encoded(results) == _encoded(serial_grid)
        assert latch.exists()


# ------------------------------------------------------------ golden tests

GOLDEN_N = 60_000  # ~1.5 s per cell: a kill at ~2 s lands mid-grid

GOLDEN_GRID = [
    _cell("exchange2", num_uops=GOLDEN_N),
    _cell("lbm", num_uops=GOLDEN_N),
    _cell("lbm", "phast", num_uops=GOLDEN_N),
    _cell("perlbench1", num_uops=GOLDEN_N),
    _cell("mcf", num_uops=GOLDEN_N),
    _cell("xalancbmk", num_uops=GOLDEN_N),
]


@pytest.fixture(scope="module")
def serial_golden():
    return execute_cells(GOLDEN_GRID)


class TestGoldenCrashRecovery:
    def test_worker_sigkill_mid_grid_bit_identical(self, workers,
                                                   serial_golden):
        endpoints, procs = workers(2)
        timer = threading.Timer(2.0, procs[0].kill)
        timer.start()
        try:
            results = execute_cells(GOLDEN_GRID, backend=endpoints,
                                    policy=_policy(retries=3))
        finally:
            timer.cancel()
        assert _encoded(results) == _encoded(serial_golden)

    def test_coordinator_sigkill_then_resume_bit_identical(
            self, workers, serial_golden, tmp_path):
        endpoints, _ = workers(2)
        journal_dir = tmp_path / "journals"
        driver = tmp_path / "driver.py"
        driver.write_text(f"""
import sys
sys.path.insert(0, {str(SRC)!r})
from repro.experiments.parallel import CellSpec, execute_cells
from repro.experiments.journal import RunJournal
from repro.experiments.resilience import ResiliencePolicy

grid = [CellSpec(mode="accuracy", benchmark=b, num_uops={GOLDEN_N},
                 predictor=p) for b, p in [
    ("exchange2", "mascot"), ("lbm", "mascot"), ("lbm", "phast"),
    ("perlbench1", "mascot"), ("mcf", "mascot"), ("xalancbmk", "mascot")]]
execute_cells(grid, backend={endpoints!r},
              journal=RunJournal({str(journal_dir)!r}),
              policy=ResiliencePolicy(retries=2, backoff_base=0.01,
                                      jitter=0.0))
""")
        coordinator = subprocess.Popen(
            [sys.executable, str(driver)], env=dict(os.environ),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            # Wait until the journal shows real progress (>=1 cell ok) but
            # the run is still incomplete, then SIGKILL mid-grid.
            deadline = time.monotonic() + 120.0
            run_file = None
            while time.monotonic() < deadline:
                files = list(journal_dir.glob("*.jsonl"))
                if files:
                    run_file = files[0]
                    text = run_file.read_text()
                    if '"event": "ok"' in text:
                        break
                if coordinator.poll() is not None:
                    break
                time.sleep(0.05)
            assert run_file is not None, "coordinator never journaled"
            killed_mid_grid = coordinator.poll() is None
            if killed_mid_grid:
                coordinator.send_signal(signal.SIGKILL)
            coordinator.wait(timeout=30)
        finally:
            if coordinator.poll() is None:
                coordinator.kill()
                coordinator.wait(timeout=10)
        assert killed_mid_grid, "run finished before the kill landed"

        # The journal tail may be torn and leases may still be open —
        # resume on the *same still-running workers* must recompute only
        # what never completed and merge bit-identically.
        run_id = run_file.name[:-len(".jsonl")]
        journal = RunJournal(journal_dir)
        carried = len(journal.load(run_id).completed)
        assert carried < len(GOLDEN_GRID)  # the kill landed mid-grid
        resumed = execute_cells(GOLDEN_GRID, backend=endpoints,
                                journal=journal, resume=run_id,
                                policy=_policy())
        assert _encoded(resumed) == _encoded(serial_golden)
        # The resumed run carried every completed cell from the journal.
        state = journal.load(journal.last_run_id)
        assert len(state.completed) == len(GOLDEN_GRID)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))

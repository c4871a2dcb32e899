"""Tests for the async HTTP grid-submission coordinator (``repro serve``).

The contract under test: a grid POSTed to ``/submit`` streams back one
record per cell and ends with a ``done`` summary whose per-cell digests
are bit-identical to a local serial run of the same grid — for any number
of concurrent tenants, with or without a shared cache behind the server.
"""

import http.client
import json
import threading
import time

import pytest

from repro.core.config import GOLDEN_COVE
from repro.experiments.parallel import Execution, execute_cells
from repro.experiments.resilience import CellFailure, FailureKind
from repro.experiments.serve import (
    SubmissionError,
    SubmissionSpec,
    serve_http,
    submission_summary,
)

from .test_cache_service import _Server

GRID = {"mode": "accuracy", "predictors": ["mascot", "phast"],
        "benchmarks": ["lbm"], "num_uops": 3_000}


# ---------------------------------------------------------- spec validation

class TestSubmissionSpec:
    def test_defaults(self):
        sub = SubmissionSpec(dict(GRID))
        assert sub.mode == "accuracy"
        assert sub.warmup == 3_000 // 4
        assert sub.policy.fail_fast is False
        assert sub.policy.retries >= 0
        # benchmark-major cell order, exactly like run_accuracy_suite
        assert [(c.benchmark, c.predictor) for c in sub.cells] == [
            ("lbm", "mascot"), ("lbm", "phast")]
        assert all(c.warmup == sub.warmup for c in sub.cells)

    def test_benchmarks_default_to_full_suite(self):
        from repro.trace.profiles import suite_names

        sub = SubmissionSpec({"predictors": ["mascot"]})
        assert sub.benchmarks == list(suite_names())

    def test_timing_cells_carry_core_windows(self):
        sub = SubmissionSpec({"mode": "timing", "predictors": ["nosq"],
                              "benchmarks": ["lbm"], "num_uops": 2_000,
                              "engine": "batched"})
        (cell,) = sub.cells
        assert cell.mode == "timing"
        assert cell.store_window == GOLDEN_COVE.sb_size
        assert cell.instr_window == GOLDEN_COVE.rob_size
        assert cell.engine == "batched"
        assert cell.warmup == 0  # warmup is an accuracy-mode knob

    def test_keep_going_false_means_fail_fast(self):
        sub = SubmissionSpec(dict(GRID, keep_going=False))
        assert sub.policy.fail_fast is True

    @pytest.mark.parametrize("body,match", [
        ([], "JSON object"),
        (dict(GRID, mode="nope"), "unknown mode"),
        ({"mode": "accuracy"}, "predictors"),
        (dict(GRID, predictors=[]), "predictors"),
        (dict(GRID, predictors=["not-a-predictor"]), "unknown predictors"),
        (dict(GRID, benchmarks=["not-a-benchmark"]), "unknown benchmarks"),
        (dict(GRID, benchmarks=[]), "benchmarks"),
        (dict(GRID, num_uops=0), "num_uops"),
        (dict(GRID, num_uops="many"), "num_uops"),
        (dict(GRID, warmup=-1), "warmup"),
        (dict(GRID, engine="quantum"), "unknown engine"),
        (dict(GRID, retries=-1), "retries"),
        (dict(GRID, cell_timeout=0), "cell_timeout"),
        (dict(GRID, keep_going="yes"), "keep_going"),
        (dict(GRID, surprise=1), "unknown submission fields"),
    ], ids=lambda value: str(value)[:40])
    def test_rejections(self, body, match):
        with pytest.raises(SubmissionError, match=match):
            SubmissionSpec(body)


# ------------------------------------------------------- summary semantics

class TestSubmissionSummary:
    def test_digests_and_totals(self):
        sub = SubmissionSpec(dict(GRID))
        results = execute_cells(sub.cells, cache=None, journal=None)
        summary = submission_summary(sub.mode, sub.cells, results)
        assert sorted(summary["digests"]) == ["lbm/mascot", "lbm/phast"]
        assert summary["failures"] == {}
        for name in ("mascot", "phast"):
            assert set(summary["totals"][name]) == {
                "mispredictions", "false_dependencies", "speculative_errors"}
        # Digest maps are the bit-identity comparator: a re-run agrees.
        again = execute_cells(sub.cells, cache=None, journal=None)
        assert (submission_summary(sub.mode, sub.cells, again)["digests"]
                == summary["digests"])

    def test_failures_are_recorded_not_digested(self):
        sub = SubmissionSpec(dict(GRID))
        results = execute_cells(sub.cells, cache=None, journal=None)
        results[1] = CellFailure(spec=sub.cells[1], kind=FailureKind.ERROR,
                                 attempts=1, message="boom")
        summary = submission_summary(sub.mode, sub.cells, results)
        assert list(summary["digests"]) == ["lbm/mascot"]
        assert summary["failures"] == {"lbm/phast": "error"}


# -------------------------------------------------------- HTTP integration

class _HttpServer:
    """One in-thread ``serve_http`` with a deterministic lifecycle."""

    def __init__(self, tmp_path, **kwargs):
        self.stop = threading.Event()
        ready = tmp_path / f"serve-{id(self)}.ready"
        self.thread = threading.Thread(
            target=serve_http,
            kwargs=dict(port=0, ready_file=str(ready), quiet=True,
                        stop=self.stop, execution=Execution(**kwargs)),
            daemon=True)
        self.thread.start()
        deadline = time.monotonic() + 10.0
        while not ready.exists():
            assert time.monotonic() < deadline, "serve_http never ready"
            time.sleep(0.01)
        host, port = ready.read_text().strip().rsplit(":", 1)
        self.host, self.port = host, int(port)

    def shutdown(self):
        self.stop.set()
        self.thread.join(timeout=10)
        assert not self.thread.is_alive()

    def get(self, path):
        conn = http.client.HTTPConnection(self.host, self.port, timeout=30)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def submit(self, body):
        """POST a grid; returns ``(status, records_or_error_bytes)``."""
        conn = http.client.HTTPConnection(self.host, self.port, timeout=120)
        try:
            conn.request("POST", "/submit", body=json.dumps(body).encode(),
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            if response.status != 200:
                return response.status, response.read()
            records = [json.loads(line) for line in response if line.strip()]
            return response.status, records
        finally:
            conn.close()


@pytest.fixture
def http_server(tmp_path):
    server = _HttpServer(tmp_path)
    yield server
    server.shutdown()


def _done(records):
    assert records[-1]["event"] == "done", records[-1]
    return records[-1]


class TestServeHttp:
    def test_healthz(self, http_server):
        status, body = http_server.get("/healthz")
        assert status == 200
        health = json.loads(body)
        assert health["ok"] is True
        assert health["backend"] == "local"

    def test_unknown_path_404(self, http_server):
        status, _body = http_server.get("/nope")
        assert status == 404

    def test_bad_submission_400(self, http_server):
        status, body = http_server.submit(dict(GRID, mode="nope"))
        assert status == 400
        assert "unknown mode" in json.loads(body)["error"]

    def test_submit_streams_cells_then_done(self, http_server):
        status, records = http_server.submit(GRID)
        assert status == 200
        assert records[0]["event"] == "start"
        assert records[0]["cells"] == 2
        cells = [r for r in records if r["event"] == "cell"]
        assert sorted(c["position"] for c in cells) == [0, 1]
        assert all(c["status"] == "ok" and c["digest"] for c in cells)
        done = _done(records)
        assert (done["ok"], done["failed"]) == (2, 0)

    def test_stream_matches_serial_run_bit_for_bit(self, http_server):
        status, records = http_server.submit(GRID)
        assert status == 200
        sub = SubmissionSpec(dict(GRID))
        serial = execute_cells(sub.cells, cache=None, journal=None)
        reference = submission_summary(sub.mode, sub.cells, serial)
        assert _done(records)["summary"]["digests"] == reference["digests"]
        # The per-cell streamed digests agree with the summary map too.
        streamed = {f"{r['benchmark']}/{r['predictor']}": r["digest"]
                    for r in records if r["event"] == "cell"}
        assert streamed == reference["digests"]

    def test_two_concurrent_tenants_agree(self, http_server):
        outcomes = {}

        def tenant(name):
            outcomes[name] = http_server.submit(GRID)

        threads = [threading.Thread(target=tenant, args=(name,))
                   for name in ("a", "b")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        (status_a, records_a), (status_b, records_b) = (
            outcomes["a"], outcomes["b"])
        assert status_a == status_b == 200
        digests_a = _done(records_a)["summary"]["digests"]
        digests_b = _done(records_b)["summary"]["digests"]
        assert digests_a == digests_b
        assert len(digests_a) == 2

    def test_submissions_share_a_cache_server(self, tmp_path):
        cache = _Server(tmp_path / "served", tmp_path)
        http_server = _HttpServer(tmp_path, cache=cache.url)
        try:
            status, cold = http_server.submit(GRID)
            assert status == 200
            status, warm = http_server.submit(GRID)
            assert status == 200
            assert (_done(cold)["summary"]["digests"]
                    == _done(warm)["summary"]["digests"])
            # The second tenant computed nothing: every cell resolved
            # from the shared cache server.
            sources = [r["source"] for r in warm if r["event"] == "cell"]
            assert sources == ["cache", "cache"]
        finally:
            http_server.shutdown()
            cache.shutdown()

    def test_sweep_record_streams_cache_counters(self, tmp_path):
        cache = _Server(tmp_path / "served", tmp_path)
        http_server = _HttpServer(tmp_path, cache=cache.url)
        try:
            status, records = http_server.submit(GRID)
            assert status == 200
            (sweep,) = [r for r in records if r.get("event") == "sweep"]
            assert sweep["cache"]["stores"] == 2
        finally:
            http_server.shutdown()
            cache.shutdown()

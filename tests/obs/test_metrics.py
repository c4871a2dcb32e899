"""MetricsWriter and the suite engine's JSONL execution records."""

import json

from repro.experiments.parallel import CellSpec, execute_cells
from repro.experiments.result_cache import cell_key
from repro.obs.metrics import (
    MetricsWriter,
    render_metrics_summary,
    summarize_metrics,
)


def read_records(path):
    return [json.loads(line) for line in
            path.read_text().strip().splitlines()]


class TestMetricsWriter:
    def test_appends_jsonl(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        with MetricsWriter(path) as writer:
            writer.emit({"event": "a", "n": 1})
            writer.emit({"event": "b"})
        assert writer.records == 2
        events = [r["event"] for r in read_records(path)]
        assert events == ["a", "b"]

    def test_lazy_open_writes_nothing_for_no_records(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        with MetricsWriter(path):
            pass
        assert not path.exists()

    def test_reopening_appends(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        with MetricsWriter(path) as writer:
            writer.emit({"event": "first"})
        with MetricsWriter(path) as writer:
            writer.emit({"event": "second"})
        assert [r["event"] for r in read_records(path)] == ["first", "second"]


class TestSuiteMetrics:
    def _cells(self):
        return [
            CellSpec(mode="accuracy", benchmark=bench, num_uops=2_000,
                     predictor="store-sets", warmup=500)
            for bench in ("exchange2", "lbm")
        ]

    def test_cold_run_emits_computed_cells_and_sweep(self, tmp_path):
        metrics = tmp_path / "metrics.jsonl"
        execute_cells(self._cells(), cache=tmp_path / "cache",
                      metrics=metrics)
        records = read_records(metrics)
        cells = [r for r in records if r["event"] == "cell"]
        assert [r["source"] for r in cells] == ["computed", "computed"]
        assert {r["benchmark"] for r in cells} == {"exchange2", "lbm"}
        assert all(r["status"] == "ok" and r["duration_s"] >= 0
                   for r in cells)
        (sweep,) = [r for r in records if r["event"] == "sweep"]
        assert sweep["cells"] == 2
        assert sweep["computed"] == 2
        assert sweep["cache_hits"] == 0

    def test_warm_rerun_reports_cache_hits(self, tmp_path):
        cache = tmp_path / "cache"
        cold = execute_cells(self._cells(), cache=cache,
                             metrics=tmp_path / "cold.jsonl")
        warm_metrics = tmp_path / "warm.jsonl"
        warm = execute_cells(self._cells(), cache=cache,
                             metrics=warm_metrics)
        assert [r.to_dict() for r in warm] == [r.to_dict() for r in cold]
        records = read_records(warm_metrics)
        cells = [r for r in records if r["event"] == "cell"]
        assert [r["source"] for r in cells] == ["cache", "cache"]
        (sweep,) = [r for r in records if r["event"] == "sweep"]
        assert sweep["cache_hits"] == 2
        assert sweep["computed"] == 0

    def test_metrics_off_by_default(self, tmp_path):
        execute_cells(self._cells(), cache=tmp_path / "cache")
        assert list(tmp_path.glob("*.jsonl")) == []

    def test_accepts_open_writer_without_closing_it(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        writer = MetricsWriter(path)
        execute_cells(self._cells()[:1], cache=tmp_path / "cache",
                      metrics=writer)
        writer.emit({"event": "caller"})  # still usable: not closed
        writer.close()
        events = [r["event"] for r in read_records(path)]
        assert events.count("cell") == 1
        assert events[-1] == "caller"

    def test_uncached_records_carry_the_cell_key(self, tmp_path):
        """A --no-cache --metrics run still keys its records, so records
        of any run can be joined on the cell key."""
        cell = self._cells()[0]
        metrics = tmp_path / "metrics.jsonl"
        execute_cells([cell], metrics=metrics)
        (record,) = [r for r in read_records(metrics)
                     if r["event"] == "cell"]
        assert record["key"] == cell_key(cell)
        assert "attempts" not in record

    def test_summary_line(self, tmp_path):
        metrics = tmp_path / "metrics.jsonl"
        execute_cells(self._cells(), cache=tmp_path / "cache",
                      metrics=metrics)
        execute_cells(self._cells(), cache=tmp_path / "cache",
                      metrics=metrics)
        assert render_metrics_summary(summarize_metrics(metrics)) == (
            "4 cells (2 computed, 2 cached, 0 failed); "
            "cache 2 hits/2 misses/2 stores")

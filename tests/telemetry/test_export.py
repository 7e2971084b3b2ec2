"""Exporter formats, and a real run's event log exported to Perfetto."""

from __future__ import annotations

import csv
import io
import json

from repro.telemetry import (
    Telemetry,
    events_to_json,
    events_to_perfetto,
    metrics_to_csv,
    metrics_to_json,
    metrics_to_prometheus,
    write_events,
    write_metrics,
)
from repro.telemetry import names as tn


def sample_telemetry() -> Telemetry:
    tel = Telemetry()
    tel.metrics.counter(tn.ENGINE_TRAFFIC_BYTES_TOTAL).inc(
        1.5e9, resource="ddr"
    )
    tel.metrics.gauge(tn.ALLOC_HIGH_WATER_BYTES).set_max(
        2048, device="mcdram"
    )
    tel.metrics.histogram(tn.ENGINE_PHASE_SECONDS).observe(3.0)
    tel.events.emit(tn.EVENT_RUN_START, time=0.0, plan="p")
    tel.events.emit(tn.EVENT_PHASE_END, time=3.0, phase="a", seconds=3.0)
    return tel


class TestJson:
    def test_snapshot_includes_sim_time_and_metrics(self):
        payload = json.loads(metrics_to_json(sample_telemetry()))
        assert payload["sim_time"] == 3.0
        traffic = payload["metrics"][tn.ENGINE_TRAFFIC_BYTES_TOTAL]
        assert traffic["series"][0] == {
            "labels": {"resource": "ddr"}, "value": 1.5e9
        }

    def test_bare_registry_accepted(self):
        tel = sample_telemetry()
        payload = json.loads(metrics_to_json(tel.metrics))
        assert tn.ENGINE_PHASE_SECONDS in payload["metrics"]


class TestPrometheus:
    def test_counter_and_gauge_lines(self):
        text = metrics_to_prometheus(sample_telemetry())
        assert "# TYPE engine_traffic_bytes_total counter" in text
        assert 'engine_traffic_bytes_total{resource="ddr"} 1.5e+09' in text
        assert 'alloc_high_water_bytes{device="mcdram"} 2048' in text

    def test_histogram_renders_cumulative_buckets(self):
        lines = metrics_to_prometheus(sample_telemetry()).splitlines()
        # 3.0 lands in the [2, 4) bucket -> le="4".
        assert 'engine_phase_seconds_bucket{le="4"} 1' in lines
        assert 'engine_phase_seconds_bucket{le="+Inf"} 1' in lines
        assert "engine_phase_seconds_sum 3" in lines
        assert "engine_phase_seconds_count 1" in lines

    def test_empty_registry_renders_empty(self):
        assert metrics_to_prometheus(Telemetry()) == ""


class TestCsv:
    def test_one_row_per_series_parseable(self):
        rows = list(csv.DictReader(io.StringIO(
            metrics_to_csv(sample_telemetry())
        )))
        by_name = {r["metric"]: r for r in rows}
        assert by_name[tn.ENGINE_TRAFFIC_BYTES_TOTAL]["value"] == "1.5e+09"
        assert by_name[tn.ENGINE_TRAFFIC_BYTES_TOTAL]["labels"] == (
            "resource=ddr"
        )
        hist = by_name[tn.ENGINE_PHASE_SECONDS]
        assert hist["value"] == "" and hist["count"] == "1"


class TestEvents:
    def test_json_array_of_flat_records(self):
        records = json.loads(events_to_json(sample_telemetry().events))
        assert records[0]["name"] == tn.EVENT_RUN_START
        assert records[1]["seconds"] == 3.0

    def test_perfetto_instant_events(self):
        trace = json.loads(events_to_perfetto(sample_telemetry().events))
        events = trace["traceEvents"]
        assert len(events) == 2
        phase_end = events[1]
        assert phase_end["ph"] == "i" and phase_end["s"] == "g"
        assert phase_end["ts"] == 3.0 * 1e6
        assert phase_end["tid"] == "phase"  # category track
        assert phase_end["args"]["seconds"] == 3.0


class TestWriteByExtension:
    def test_metrics_extension_sniffing(self, tmp_path):
        tel = sample_telemetry()
        prom = tmp_path / "m.prom"
        write_metrics(str(prom), tel)
        assert prom.read_text().startswith("# HELP")
        as_csv = tmp_path / "m.csv"
        write_metrics(str(as_csv), tel)
        assert as_csv.read_text().startswith("metric,kind,")
        as_json = tmp_path / "m.json"
        write_metrics(str(as_json), tel)
        assert json.loads(as_json.read_text())["sim_time"] == 3.0

    def test_events_extension_sniffing(self, tmp_path):
        tel = sample_telemetry()
        perfetto = tmp_path / "e.perfetto.json"
        write_events(str(perfetto), tel)
        assert "traceEvents" in json.loads(perfetto.read_text())
        plain = tmp_path / "e.json"
        write_events(str(plain), tel)
        assert isinstance(json.loads(plain.read_text()), list)


class TestRunEventsToPerfetto:
    def test_merge_bench_session_exports_phase_events(self):
        """A merge-benchmark run under a telemetry session logs its
        phases, and the log exports as Perfetto instant events."""
        from repro.algorithms.merge_bench import (
            MergeBenchConfig,
            run_merge_bench,
        )
        from repro.simknl.node import KNLNode, KNLNodeConfig, MemoryMode
        from repro.telemetry import telemetry_session

        node = KNLNode(KNLNodeConfig(mode=MemoryMode.FLAT))
        cfg = MergeBenchConfig(
            repeats=2,
            copy_in_threads=4,
            data_bytes=2 * 10**9,
            chunk_bytes=10**9,
        )
        with telemetry_session() as tel:
            run_merge_bench(node, cfg)
        trace = json.loads(events_to_perfetto(tel.events))
        assert {e["ph"] for e in trace["traceEvents"]} == {"i"}
        names = {e["name"] for e in trace["traceEvents"]}
        assert tn.EVENT_PHASE_END in names

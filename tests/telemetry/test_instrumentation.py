"""Instrumented layers really emit, end to end.

Covers the acceptance path — ``repro-knl table1 --metrics --events``
produces engine phase counters and per-device byte counters, with the
event log round-tripping through the Perfetto exporter — plus
per-layer unit checks.
"""

from __future__ import annotations

import json

from repro.cli import main
from repro.experiments import runner
from repro.simknl.cache import DirectMappedCache
from repro.simknl.node import KNLNode, KNLNodeConfig, MemoryMode
from repro.telemetry import names as tn
from repro.telemetry import telemetry_session
from repro.threads.pool import PoolSet


class TestCliAcceptance:
    def test_table1_metrics_and_events(self, tmp_path, capsys, monkeypatch):
        # Memo hits run no engine work, so start from an empty memo.
        monkeypatch.setattr(runner, "_SWEEP_MEMO", {})
        metrics = tmp_path / "m.json"
        events = tmp_path / "e.perfetto.json"
        code = main([
            "table1", "--metrics", str(metrics), "--events", str(events)
        ])
        assert code == 0
        capsys.readouterr()

        snap = json.loads(metrics.read_text())
        m = snap["metrics"]
        # Engine phase counters.
        assert m[tn.ENGINE_PHASES_TOTAL]["series"][0]["value"] > 0
        assert m[tn.ENGINE_RUNS_TOTAL]["series"][0]["value"] >= 30
        # Per-device traffic byte counters.
        resources = {
            s["labels"]["resource"]
            for s in m[tn.ENGINE_TRAFFIC_BYTES_TOTAL]["series"]
        }
        assert {"ddr", "mcdram"} <= resources

        # Event log round-trips through the Perfetto exporter.
        trace = json.loads(events.read_text())
        assert trace["traceEvents"], "no events captured"
        names = {e["name"] for e in trace["traceEvents"]}
        assert tn.EVENT_PHASE_START in names
        assert tn.EVENT_RUN_END in names
        assert all(e["ph"] == "i" for e in trace["traceEvents"])

    def test_no_telemetry_flags_no_session(self, capsys):
        assert main(["table2"]) == 0
        capsys.readouterr()


class TestCacheInstrumentation:
    def test_hits_misses_writebacks(self):
        with telemetry_session() as tel:
            cache = DirectMappedCache(capacity=1024, line_size=64)
            cache.access(0, write=True)   # cold miss
            cache.access(0)               # hit
            cache.access(1024, write=False)  # evicts dirty line 0
            cache.flush()
        m = tel.metrics
        assert m.counter(tn.CACHE_HITS_TOTAL).value() == 1
        misses = m.counter(tn.CACHE_MISSES_TOTAL)
        assert sum(v for _, v in misses.series()) == 2
        assert m.counter(tn.CACHE_WRITEBACKS_TOTAL).value() >= 1
        assert m.counter(tn.CACHE_FLUSHES_TOTAL).value() == 1


class TestPoolInstrumentation:
    def test_role_gauges_set_on_construction(self):
        node = KNLNode(KNLNodeConfig(mode=MemoryMode.FLAT))
        with telemetry_session() as tel:
            PoolSet.split(node, compute=200, copy_in=16, copy_out=8)
        g = tel.metrics.gauge(tn.POOL_THREADS)
        assert g.value(role="compute") == 200
        assert g.value(role="copy-in") == 16
        assert g.value(role="copy-out") == 8


class TestDisabledCost:
    def test_no_session_records_nothing(self):
        from repro.experiments.runner import sort_variant_seconds
        from repro.telemetry import current

        before = current()
        assert not before.enabled
        sort_variant_seconds("MLM-sort", 2_000_000_000, "random")
        # The shared disabled instance stays untouched.
        assert list(before.metrics) == []
        assert len(before.events) == 0

"""Metric registry, event log, and session-scoping semantics."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.telemetry import Telemetry, current, telemetry_session
from repro.telemetry import names as tn
from repro.telemetry.registry import HistogramData


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Telemetry().metrics.counter(tn.ENGINE_RUNS_TOTAL)
        assert c.value() == 0.0
        c.inc()
        c.inc(2.5)
        assert c.value() == 3.5

    def test_cannot_decrease(self):
        c = Telemetry().metrics.counter(tn.ENGINE_RUNS_TOTAL)
        with pytest.raises(ConfigError):
            c.inc(-1)

    def test_labelled_series_are_independent(self):
        c = Telemetry().metrics.counter(tn.ENGINE_TRAFFIC_BYTES_TOTAL)
        c.inc(10, resource="ddr")
        c.inc(4, resource="mcdram")
        assert c.value(resource="ddr") == 10
        assert c.value(resource="mcdram") == 4
        assert len(list(c.series())) == 2

    def test_label_set_validated(self):
        m = Telemetry().metrics
        with pytest.raises(ConfigError):
            m.counter(tn.ENGINE_TRAFFIC_BYTES_TOTAL).inc(1)  # missing
        with pytest.raises(ConfigError):
            m.counter(tn.ENGINE_RUNS_TOTAL).inc(1, device="x")  # extra

    def test_keyword_label_names_work(self):
        # The cache-miss label is literally called "class".
        c = Telemetry().metrics.counter(tn.CACHE_MISSES_TOTAL)
        c.inc(**{"class": "cold"})
        assert c.value(**{"class": "cold"}) == 1


class TestGauge:
    def test_set_add_and_both_directions(self):
        g = Telemetry().metrics.gauge(tn.POOL_THREADS)
        g.set(100, role="compute")
        g.add(-25, role="compute")
        assert g.value(role="compute") == 75

    def test_set_max_is_high_water(self):
        g = Telemetry().metrics.gauge(tn.ALLOC_HIGH_WATER_BYTES)
        g.set_max(10, device="mcdram")
        g.set_max(5, device="mcdram")
        g.set_max(12, device="mcdram")
        assert g.value(device="mcdram") == 12


class TestHistogram:
    def test_aggregates(self):
        h = Telemetry().metrics.histogram(tn.ENGINE_PHASE_SECONDS)
        for v in (1.0, 2.0, 9.0):
            h.observe(v)
        data = h.data()
        assert data.count == 3
        assert data.sum == 12.0
        assert data.min == 1.0 and data.max == 9.0
        assert data.mean == 4.0

    def test_log2_buckets_sparse(self):
        d = HistogramData()
        for v in (1.5, 3.0, 3.9, 100.0, 0.0):
            d.observe(v)
        # floor(log2): 1.5 -> 0; 3.0, 3.9 -> 1; 100 -> 6; 0 -> underflow
        assert d.buckets == {0: 1, 1: 2, 6: 1, None: 1}

    def test_bucket_bounds_cumulative(self):
        d = HistogramData()
        for v in (0.0, 1.5, 3.0, 3.9):
            d.observe(v)
        # underflow bound 0, then 2^(e+1) upper bounds, cumulative.
        assert d.bucket_bounds() == [(0.0, 1), (2.0, 2), (4.0, 4)]


class TestRegistry:
    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError):
            Telemetry().metrics.counter("engine.bogus_total")

    def test_kind_mismatch_rejected(self):
        m = Telemetry().metrics
        with pytest.raises(ConfigError):
            m.gauge(tn.ENGINE_RUNS_TOTAL)  # declared as a counter

    def test_lazy_creation_and_iteration(self):
        m = Telemetry().metrics
        assert tn.ENGINE_RUNS_TOTAL not in m
        c = m.counter(tn.ENGINE_RUNS_TOTAL)
        assert m.counter(tn.ENGINE_RUNS_TOTAL) is c
        assert list(m) == [tn.ENGINE_RUNS_TOTAL]

    def test_snapshot_shapes(self):
        tel = Telemetry()
        tel.metrics.counter(tn.ENGINE_RUNS_TOTAL).inc()
        tel.metrics.histogram(tn.ENGINE_PHASE_SECONDS).observe(2.0)
        snap = tel.metrics.snapshot()
        runs = snap[tn.ENGINE_RUNS_TOTAL]
        assert runs["kind"] == "counter"
        assert runs["series"] == [{"labels": {}, "value": 1.0}]
        hist = snap[tn.ENGINE_PHASE_SECONDS]["series"][0]
        assert hist["count"] == 1 and hist["buckets"] == [[4.0, 1]]


class TestEventLog:
    def test_unknown_event_rejected(self):
        with pytest.raises(ConfigError):
            Telemetry().events.emit("engine.bogus")

    def test_watermark_monotonic(self):
        log = Telemetry().events
        log.emit(tn.EVENT_RUN_START, time=5.0)
        # A stale producer clock cannot move the log backwards.
        ev = log.emit(tn.EVENT_PHASE_START, time=3.0)
        assert ev.time == 5.0
        assert log.now == 5.0
        log.advance(8.0)
        assert log.emit(tn.EVENT_RUN_END).time == 8.0

    def test_sequence_and_queries(self):
        log = Telemetry().events
        log.emit(tn.EVENT_RUN_START, plan="p")
        log.emit(tn.EVENT_PHASE_START, phase="a")
        log.emit(tn.EVENT_PHASE_START, phase="b")
        assert [e.seq for e in log] == [1, 2, 3]
        assert log.names() == {tn.EVENT_RUN_START, tn.EVENT_PHASE_START}
        phases = log.of(tn.EVENT_PHASE_START)
        assert [e.attrs["phase"] for e in phases] == ["a", "b"]

    def test_as_dict_flattens_attrs(self):
        ev = Telemetry().events.emit(tn.EVENT_RUN_START, plan="p")
        assert ev.as_dict() == {
            "seq": 1, "time": 0.0, "name": tn.EVENT_RUN_START, "plan": "p"
        }


class TestSessionScoping:
    def test_disabled_outside_any_session(self):
        tel = current()
        assert not tel.enabled

    def test_session_activates_and_restores(self):
        before = current()
        with telemetry_session() as tel:
            assert current() is tel
            assert tel.enabled
        assert current() is before

    def test_sessions_nest(self):
        with telemetry_session() as outer:
            outer.metrics.counter(tn.ENGINE_RUNS_TOTAL).inc()
            with telemetry_session() as inner:
                assert current() is inner
                assert tn.ENGINE_RUNS_TOTAL not in inner.metrics
            assert current() is outer

    def test_restored_on_exception(self):
        with pytest.raises(RuntimeError):
            with telemetry_session():
                raise RuntimeError("boom")
        assert not current().enabled

    def test_supplied_telemetry_reused(self):
        tel = Telemetry()
        with telemetry_session(tel) as active:
            assert active is tel

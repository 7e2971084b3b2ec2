"""Unified telemetry: metrics registry + structured event log.

The paper's argument rests on *seeing* where bytes and seconds go —
per-phase bandwidth utilization (Fig. 2-5), DDR-traffic reduction
(Section 6), and the copy-thread model of §3.2 all depend on
fine-grained counters. This package gives every layer of the stack a
first-class way to report them:

* :mod:`repro.telemetry.names` — the authoritative catalog of every
  metric and event the stack may emit. The registry rejects names not
  in the catalog, so ``docs/OBSERVABILITY.md`` can enumerate the full
  telemetry surface and a test can keep the two in sync.
* :mod:`repro.telemetry.registry` — counters, gauges, and histograms
  with labels; snapshots are plain dicts.
* :mod:`repro.telemetry.events` — typed event records with monotonic
  sim-time timestamps (the engine advances the clock).
* :mod:`repro.telemetry.runtime` — context-scoped sessions. The
  default telemetry object is *disabled*: instrumented code checks one
  attribute and skips all work, so an un-instrumented run costs
  essentially nothing and no global mutable state leaks between tests.
  Only this module loads with the package; the others load with the
  first enabled session (or the first access of their names here).
* :mod:`repro.telemetry.export` — JSON snapshot, Prometheus-style
  text, CSV, and Perfetto/Chrome-trace exporters.

Typical use::

    from repro import telemetry

    with telemetry.telemetry_session() as tel:
        node.run(plan)
        print(telemetry.metrics_to_json(tel.metrics))
        print(telemetry.events_to_perfetto(tel.events))
"""

from repro.telemetry.runtime import Telemetry, current, telemetry_session


def __getattr__(name: str):
    # The other submodules' exports load on first use.
    if name in __all__:
        from repro.telemetry import events, export, registry

        for module in (events, registry, export):
            if hasattr(module, name):
                return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Counter",
    "Event",
    "EventLog",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "Telemetry",
    "current",
    "events_to_json",
    "events_to_perfetto",
    "metrics_to_csv",
    "metrics_to_json",
    "metrics_to_prometheus",
    "telemetry_session",
    "write_events",
    "write_metrics",
]

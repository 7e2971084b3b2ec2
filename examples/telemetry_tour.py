#!/usr/bin/env python3
"""Tour of the telemetry layer: metrics, events, exporters.

Runs one Table 1 sort variant inside a telemetry session and shows
what the stack recorded along the way — engine phase counters and
per-resource traffic — plus the structured event log and the
Prometheus/Perfetto export paths. The full metric
and event catalog lives in ``docs/OBSERVABILITY.md``.

Run: ``python examples/telemetry_tour.py [metrics.prom] [events.perfetto.json]``
"""

import sys

from repro.experiments.runner import sort_variant_seconds
from repro.telemetry import (
    metrics_to_prometheus,
    telemetry_session,
    write_events,
    write_metrics,
)


def main(
    metrics_path: str | None = None, events_path: str | None = None
) -> None:
    with telemetry_session() as tel:
        seconds = sort_variant_seconds("MLM-sort", 2_000_000_000, "random")
    print(f"MLM-sort, 2B random elements: {seconds:.2f} s simulated\n")

    snap = tel.snapshot()
    print("metrics snapshot (selected):")
    for name in (
        "engine.phases_total",
        "engine.traffic_bytes_total",
        "sort.megachunks_total",
    ):
        for point in snap["metrics"][name]["series"]:
            tag = "".join(
                f"{{{k}={v}}}" for k, v in sorted(point["labels"].items())
            )
            print(f"  {name}{tag} = {point['value']:g}")

    print(f"\nevent log: {len(tel.events)} events, kinds {sorted(tel.events.names())}")
    for ev in list(tel.events)[:5]:
        print(f"  t={ev.time:8.3f}  {ev.name}  {ev.attrs}")
    print("  ...")

    prom = metrics_to_prometheus(tel)
    print(f"\nPrometheus exposition: {len(prom.splitlines())} lines, e.g.")
    for line in prom.splitlines()[:3]:
        print(f"  {line}")

    if metrics_path:
        write_metrics(metrics_path, tel)
        print(f"\nwrote metrics to {metrics_path}")
    if events_path:
        write_events(events_path, tel)
        print(f"wrote events to {events_path} (open in ui.perfetto.dev)")


if __name__ == "__main__":
    main(
        sys.argv[1] if len(sys.argv) > 1 else None,
        sys.argv[2] if len(sys.argv) > 2 else None,
    )

"""Telemetry exporters: JSON, Prometheus text, CSV, and Perfetto.

Formats (all documented with examples in ``docs/OBSERVABILITY.md``):

* :func:`metrics_to_json` — the canonical snapshot: every touched
  metric with kind/unit/help and all label series;
* :func:`metrics_to_prometheus` — Prometheus text exposition (dots
  become underscores; histograms render cumulative ``le`` buckets);
* :func:`metrics_to_csv` — one row per series, for spreadsheets;
* :func:`events_to_json` — the event log as a JSON array;
* :func:`events_to_perfetto` — the event log as Chrome-trace /
  Perfetto instant events (one track per event category).

:func:`write_metrics` / :func:`write_events` pick the format from the
file extension, which is what the CLI's global ``--metrics`` /
``--events`` flags use.

Telemetry is reproduction infrastructure spanning all paper sections;
the worked export example in docs/OBSERVABILITY.md traces the Fig. 7
chunk-size sweep.
"""

from __future__ import annotations

import json

from repro.errors import ConfigError
from repro.telemetry.events import EventLog
from repro.telemetry.registry import Histogram, MetricRegistry
from repro.telemetry.runtime import Telemetry


def _registry(source: Telemetry | MetricRegistry) -> MetricRegistry:
    return source.metrics if isinstance(source, Telemetry) else source


def metrics_to_json(
    source: Telemetry | MetricRegistry, indent: int = 1
) -> str:
    """Serialize all touched metrics as a JSON snapshot."""
    if isinstance(source, Telemetry):
        payload = source.snapshot()
    else:
        payload = {"metrics": source.snapshot()}
    return json.dumps(payload, indent=indent)


def _prom_name(name: str) -> str:
    return name.replace(".", "_").replace("-", "_")


def _prom_labels(labels: dict[str, str], extra: str = "") -> str:
    parts = [f'{k}="{v}"' for k, v in labels.items()]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def metrics_to_prometheus(source: Telemetry | MetricRegistry) -> str:
    """Render touched metrics in Prometheus text exposition format."""
    registry = _registry(source)
    lines: list[str] = []
    for name in registry:
        metric = registry._metrics[name]
        spec = metric.spec
        pname = _prom_name(name)
        lines.append(f"# HELP {pname} {spec.help}")
        ptype = "histogram" if spec.kind == "histogram" else spec.kind
        lines.append(f"# TYPE {pname} {ptype}")
        if isinstance(metric, Histogram):
            for labels, data in metric.series():
                for bound, cum in data.bucket_bounds():
                    le = 'le="%g"' % bound
                    lines.append(
                        f"{pname}_bucket{_prom_labels(labels, le)} {cum}"
                    )
                inf = 'le="+Inf"'
                lines.append(
                    f"{pname}_bucket{_prom_labels(labels, inf)} "
                    f"{data.count}"
                )
                lines.append(
                    f"{pname}_sum{_prom_labels(labels)} {data.sum:g}"
                )
                lines.append(
                    f"{pname}_count{_prom_labels(labels)} {data.count}"
                )
        else:
            for labels, value in metric.series():
                lines.append(f"{pname}{_prom_labels(labels)} {value:g}")
    return "\n".join(lines) + ("\n" if lines else "")


def metrics_to_csv(source: Telemetry | MetricRegistry) -> str:
    """One CSV row per metric series.

    Columns: ``metric,kind,unit,labels,value,count,sum,min,max`` —
    counters/gauges fill ``value``; histograms fill the aggregate
    columns. Labels are ``k=v`` pairs joined with ``;``.
    """
    registry = _registry(source)
    rows = ["metric,kind,unit,labels,value,count,sum,min,max"]
    for name in registry:
        metric = registry._metrics[name]
        spec = metric.spec
        if isinstance(metric, Histogram):
            for labels, data in metric.series():
                lab = ";".join(f"{k}={v}" for k, v in labels.items())
                rows.append(
                    f"{name},{spec.kind},{spec.unit},{lab},,"
                    f"{data.count},{data.sum:g},{data.min:g},{data.max:g}"
                )
        else:
            for labels, value in metric.series():
                lab = ";".join(f"{k}={v}" for k, v in labels.items())
                rows.append(
                    f"{name},{spec.kind},{spec.unit},{lab},{value:g},,,,"
                )
    return "\n".join(rows) + "\n"


def events_to_json(log: EventLog, indent: int = 1) -> str:
    """Serialize the event log as a JSON array of flat records."""
    return json.dumps([e.as_dict() for e in log], indent=indent)


def events_to_perfetto(log: EventLog) -> str:
    """Serialize the event log as Chrome-trace / Perfetto JSON.

    Each event becomes an instant event (``"ph": "i"``) at its
    sim-time timestamp (microseconds), on a track named after the
    event's category (the part before the first dot) — so engine
    phases, allocator fallbacks and sort merges appear as separate
    annotation tracks.
    """
    trace_events = []
    for e in log:
        trace_events.append(
            {
                "name": e.name,
                "cat": "telemetry",
                "ph": "i",
                "s": "g",  # global-scope instant
                "ts": e.time * 1e6,
                "pid": 0,
                "tid": e.name.split(".", 1)[0],
                "args": {"seq": e.seq, **e.attrs},
            }
        )
    return json.dumps({"traceEvents": trace_events}, indent=1)


def write_metrics(
    path: str, source: Telemetry | MetricRegistry
) -> None:
    """Write a metrics snapshot, format chosen by extension.

    ``.prom`` / ``.txt`` → Prometheus text; ``.csv`` → CSV;
    anything else → JSON.
    """
    lower = path.lower()
    if lower.endswith((".prom", ".txt")):
        text = metrics_to_prometheus(source)
    elif lower.endswith(".csv"):
        text = metrics_to_csv(source)
    else:
        text = metrics_to_json(source)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def write_events(path: str, source: Telemetry | EventLog) -> None:
    """Write the event log, format chosen by extension.

    ``.perfetto.json`` / ``.pftrace`` / ``.trace.json`` → Chrome-trace
    JSON; anything else → the plain JSON array.
    """
    log = source.events if isinstance(source, Telemetry) else source
    if not isinstance(log, EventLog):
        raise ConfigError("write_events needs a Telemetry or EventLog")
    lower = path.lower()
    if lower.endswith((".perfetto.json", ".pftrace", ".trace.json")):
        text = events_to_perfetto(log)
    else:
        text = events_to_json(log)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)

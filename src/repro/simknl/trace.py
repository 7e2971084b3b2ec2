"""Execution traces: timelines, utilization, and Chrome-trace export.

The engine reports per-phase times and total traffic; this module
turns a :class:`~repro.simknl.engine.RunResult` plus its plan into
richer views:

* per-phase bandwidth utilization of each device;
* an ASCII Gantt chart of the phases (useful to *see* the pipeline
  overlap of Fig. 2);
* Chrome ``chrome://tracing`` / Perfetto JSON export.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.errors import ConfigError
from repro.simknl.engine import Plan, RunResult
from repro.telemetry.events import EventLog
from repro.telemetry.export import events_to_perfetto


@dataclass(frozen=True)
class PhaseUtilization:
    """Utilization of one phase.

    Attributes
    ----------
    name:
        Phase name.
    start, duration:
        Position on the timeline in seconds.
    device_bytes:
        Physical bytes each device moved during the phase.
    device_utilization:
        Fraction of each device's capacity used (bytes / (bw * t)).
    """

    name: str
    start: float
    duration: float
    device_bytes: dict[str, float]
    device_utilization: dict[str, float]


def phase_utilizations(
    plan: Plan, result: RunResult, bandwidths: dict[str, float]
) -> list[PhaseUtilization]:
    """Per-phase device utilization for a completed run.

    ``bandwidths`` maps resource names to capacities in bytes/s.
    """
    if len(plan.phases) != len(result.phase_times):
        raise ConfigError("plan and result phase counts differ")
    out = []
    clock = 0.0
    for phase, t in zip(plan.phases, result.phase_times):
        device_bytes: dict[str, float] = {}
        for f in phase.flows:
            for res, mult in f.resources.items():
                device_bytes[res] = (
                    device_bytes.get(res, 0.0) + f.bytes_total * mult
                )
        util = {}
        for res, nbytes in device_bytes.items():
            cap = bandwidths.get(res)
            if cap and t > 0:
                util[res] = min(1.0, nbytes / (cap * t))
            else:
                util[res] = 0.0
        out.append(
            PhaseUtilization(
                name=phase.name,
                start=clock,
                duration=t,
                device_bytes=device_bytes,
                device_utilization=util,
            )
        )
        clock += t
    return out


def render_gantt(
    plan: Plan, result: RunResult, width: int = 60
) -> str:
    """ASCII Gantt chart of the phases."""
    total = result.elapsed
    if total <= 0:
        raise ConfigError("run has zero elapsed time")
    lines = [f"timeline ({total:.3f} s total)"]
    clock = 0.0
    for phase, t in zip(plan.phases, result.phase_times):
        start_col = int(round(clock / total * width))
        span = max(1, int(round(t / total * width)))
        bar = " " * start_col + "#" * span
        lines.append(f"{phase.name[:24]:24s} |{bar[: width + 1]}")
        clock += t
    return "\n".join(lines)


def to_chrome_trace(
    plan: Plan, result: RunResult, events: EventLog | None = None
) -> str:
    """Serialize the run as Chrome-trace JSON (one track per phase
    role, microsecond timestamps).

    When a telemetry :class:`~repro.telemetry.events.EventLog` is
    supplied, its records are merged in as instant-event annotation
    tracks (one per event category) alongside the flow tracks, so a
    single Perfetto view shows phases, flows and allocator fallbacks
    on one timeline.
    """
    trace_events = []
    clock = 0.0
    for phase, t in zip(plan.phases, result.phase_times):
        for f in phase.flows:
            trace_events.append(
                {
                    "name": f.name,
                    "cat": "flow",
                    "ph": "X",
                    "ts": clock * 1e6,
                    "dur": t * 1e6,
                    "pid": 0,
                    "tid": f.name.split("[")[0],
                    "args": {
                        "bytes": f.bytes_total,
                        "threads": f.threads,
                        "phase": phase.name,
                    },
                }
            )
        clock += t
    if events is not None:
        merged = json.loads(events_to_perfetto(events))
        trace_events.extend(merged["traceEvents"])
    return json.dumps({"traceEvents": trace_events}, indent=1)

"""Structured event log with monotonic sim-time timestamps.

Events are typed records: a name from the catalog
(:data:`repro.telemetry.names.EVENTS`), a simulated-time timestamp, a
global sequence number, and free-form attributes. The log keeps a
monotonic watermark (:attr:`EventLog.now`): the engine advances it as
simulated time passes, and a layer without its own clock would stamp
events at the current watermark. Successive
engine runs therefore share one global, strictly ordered timeline —
what the Perfetto exporter turns into track annotations.

Telemetry is reproduction infrastructure spanning all paper sections;
event timestamps share the simulated clock of the Section 3 timed
plans.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.errors import ConfigError
from repro.telemetry.names import EVENTS


@dataclass(frozen=True)
class Event:
    """One structured event record."""

    seq: int
    time: float
    name: str
    attrs: dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready representation (attrs flattened)."""
        out: dict[str, Any] = {
            "seq": self.seq,
            "time": self.time,
            "name": self.name,
        }
        out.update(self.attrs)
        return out


class EventLog:
    """An append-only, monotonically timestamped event sequence."""

    def __init__(self) -> None:
        self.records: list[Event] = []
        #: Monotonic sim-time watermark; never decreases.
        self.now = 0.0
        self._seq = 0

    def advance(self, time: float) -> float:
        """Move the watermark forward to ``time`` (no-op if behind).

        Returns the watermark after the update, so callers can use it
        as "current sim time".
        """
        if time > self.now:
            self.now = time
        return self.now

    def emit(
        self, name: str, time: float | None = None, **attrs: Any
    ) -> Event:
        """Append an event; returns the stored record.

        ``time`` defaults to the watermark; an explicit time also
        advances the watermark, keeping the log monotonic even when
        producers report slightly stale clocks.
        """
        if name not in EVENTS:
            raise ConfigError(
                f"event {name!r} is not in the telemetry catalog "
                "(repro.telemetry.names)"
            )
        t = self.advance(time) if time is not None else self.now
        self._seq += 1
        event = Event(seq=self._seq, time=t, name=name, attrs=attrs)
        self.records.append(event)
        return event

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.records)

    def names(self) -> set[str]:
        """Distinct event names recorded so far."""
        return {e.name for e in self.records}

    def of(self, name: str) -> list[Event]:
        """All records of one event type, in order."""
        return [e for e in self.records if e.name == name]

"""Context-scoped telemetry sessions.

A :class:`Telemetry` object bundles a metric registry and an event
log. The *active* telemetry is held in a :class:`contextvars.ContextVar`
whose default is a shared, permanently **disabled** instance:
instrumented code does::

    tel = current()
    if tel.enabled:
        tel.metrics.counter(...).inc()

so a run without a session pays one context-variable read per
instrumentation site and nothing else; it never even imports the
name catalog, the registry or the event log. Sessions nest and are
context-local — parallel tests each see their own registry, and no
global mutable state leaks between them.

Telemetry is reproduction infrastructure spanning all paper sections;
instrumented layers range from the Section 3 engine to the Table 1 sort
drivers.
"""

from __future__ import annotations

import contextlib
from contextvars import ContextVar
from typing import TYPE_CHECKING, Any, Iterator

if TYPE_CHECKING:
    from repro.telemetry.events import EventLog
    from repro.telemetry.registry import MetricRegistry


class Telemetry:
    """A metric registry + event log pair.

    Attributes
    ----------
    enabled:
        False only on the shared default instance; instrumented code
        checks this one attribute on the hot path.
    metrics, events:
        The session's registry and event log, each created (and its
        module imported) on first access.
    """

    __slots__ = ("enabled", "_metrics", "_events")

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._metrics: MetricRegistry | None = None
        self._events: EventLog | None = None

    @property
    def metrics(self) -> MetricRegistry:
        if self._metrics is None:
            from repro.telemetry.registry import MetricRegistry
            self._metrics = MetricRegistry()
        return self._metrics

    @property
    def events(self) -> EventLog:
        if self._events is None:
            from repro.telemetry.events import EventLog
            self._events = EventLog()
        return self._events

    def snapshot(self) -> dict[str, Any]:
        """JSON-ready snapshot of all touched metrics."""
        return {
            "sim_time": self.events.now,
            "metrics": self.metrics.snapshot(),
        }


#: The shared disabled instance used outside any session. Instrumented
#: code never reads its registry or event log, so neither is created.
DISABLED = Telemetry(enabled=False)

_ACTIVE: ContextVar[Telemetry] = ContextVar(
    "repro_telemetry", default=DISABLED
)


def current() -> Telemetry:
    """The active telemetry (the disabled default outside a session)."""
    return _ACTIVE.get()


@contextlib.contextmanager
def telemetry_session(
    telemetry: Telemetry | None = None,
) -> Iterator[Telemetry]:
    """Activate a fresh (or supplied) telemetry for the enclosed block.

    The previous telemetry is restored on exit, even on exceptions, so
    sessions may nest and tests cannot leak registries into each
    other.
    """
    tel = telemetry if telemetry is not None else Telemetry()
    token = _ACTIVE.set(tel)
    try:
        yield tel
    finally:
        _ACTIVE.reset(token)

"""Telemetry observes, never steers.

The engine records every run after the fact, from its plan and
:class:`~repro.simknl.engine.RunResult`, and sweeps observe batched
cells in cell order. So for every driver an active session takes the
same tensor path as a plain run, and its metrics snapshot and event log
are the same as when every run is forced onto the per-phase reference
loop.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments import ALL_EXPERIMENTS
from repro.experiments import runner
from repro.simknl import batch
from repro.telemetry import telemetry_session


def _run(name: str, monkeypatch, session: bool) -> tuple:
    """Run driver ``name`` on a fresh memo; return the rows evaluated
    on the tensor path and, under a session, the snapshot and events."""
    monkeypatch.setattr(runner, "_SWEEP_MEMO", {})
    rows: list[int] = []
    real = batch.run_lowered

    def counting(engine, lowered, tensor):
        results = real(engine, lowered, tensor)
        if results is not None:
            rows.append(len(results))
        return results

    monkeypatch.setattr(batch, "run_lowered", counting)
    if not session:
        ALL_EXPERIMENTS[name]()
        return sum(rows), None, None
    with telemetry_session() as tel:
        ALL_EXPERIMENTS[name]()
    events = [(e.name, e.time, e.attrs) for e in tel.events]
    return sum(rows), json.dumps(tel.snapshot(), sort_keys=True), events


def _direct_every_cell(build, cells):
    """Evaluate each cell through its direct :func:`plan_cell` path,
    which runs and records its plans one by one."""
    cell = batch.plan_cell(build)
    return [cell(*c) for c in cells]


@pytest.mark.parametrize("name", sorted(ALL_EXPERIMENTS))
def test_session_takes_plain_path_and_sees_reference_telemetry(
    name, monkeypatch
):
    plain_rows, _, _ = _run(name, monkeypatch, session=False)
    rows, snapshot, events = _run(name, monkeypatch, session=True)
    assert rows == plain_rows  # the session did not change the path
    with monkeypatch.context() as m:
        # A declined tensor leaves every plan to Engine.run.
        m.setattr(batch, "run_lowered", lambda *args: None)
        m.setattr(batch, "evaluate_cells", _direct_every_cell)
        ref_rows, ref_snapshot, ref_events = _run(name, m, session=True)
    assert ref_rows == 0
    assert snapshot == ref_snapshot
    assert events == ref_events

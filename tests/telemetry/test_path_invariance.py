"""Telemetry observes, never steers.

The engine records every run after the fact, from its plan and
:class:`~repro.simknl.engine.RunResult`, and sweeps observe batched
cells in cell order. So for every driver an active session takes the
same fast path as a plain run, and its metrics snapshot and event log
are the same as when every run is forced onto the per-phase reference
loop. The CLI's ``--metrics`` and ``--events`` bytes of five sweep
drivers are pinned as literal digests.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.cli import main
from repro.experiments import ALL_EXPERIMENTS
from repro.experiments import runner
from repro.simknl import batch
from repro.telemetry import telemetry_session


def _run(name: str, monkeypatch, session: bool) -> tuple:
    """Run driver ``name`` on a fresh memo; return the rows evaluated
    on the fast path and, under a session, the snapshot and events."""
    monkeypatch.setattr(runner, "_SWEEP_MEMO", {})
    rows: list[int] = []

    real = batch.run_rows

    def counting(engine, lowered, plan_rows):
        results = real(engine, lowered, plan_rows)
        if results is not None:
            rows.append(len(results))
        return results

    monkeypatch.setattr(batch, "run_rows", counting)
    if not session:
        ALL_EXPERIMENTS[name]()
        return sum(rows), None, None
    with telemetry_session() as tel:
        ALL_EXPERIMENTS[name]()
    events = [(e.name, e.time, e.attrs) for e in tel.events]
    return sum(rows), json.dumps(tel.snapshot(), sort_keys=True), events


def _direct_every_cell(build, cells):
    """Evaluate each cell through its direct :func:`plan_group` path,
    which runs and records its plans one by one."""
    cell = batch.plan_group(build)
    return [cell(*c) for c in cells]


@pytest.mark.parametrize("name", sorted(ALL_EXPERIMENTS))
def test_session_takes_plain_path_and_sees_reference_telemetry(
    name, monkeypatch
):
    plain_rows, _, _ = _run(name, monkeypatch, session=False)
    rows, snapshot, events = _run(name, monkeypatch, session=True)
    assert rows == plain_rows  # the session did not change the path
    with monkeypatch.context() as m:
        # A declined fast path leaves every plan to Engine.run.
        m.setattr(batch, "run_rows", lambda *args: None)
        m.setattr(batch, "evaluate_cells", _direct_every_cell)
        ref_rows, ref_snapshot, ref_events = _run(name, m, session=True)
    assert ref_rows == 0
    assert snapshot == ref_snapshot
    assert events == ref_events


class TestPinnedTelemetry:
    """Telemetry bytes are literal digests. They lock
    ``sort.megachunks_total`` (counted per cell build), the engine
    counters and the order in which each sweep's runs are observed,
    whatever the sweep shares between its cells. ``figure8`` and
    ``pareto`` also lock the ``alloc.*`` series of the pipelines'
    MCDRAM buffer check."""

    @pytest.mark.parametrize(
        "artifact, metrics, events",
        [
            ("table1",
             "74126c49f4f7d04ceb35810c64b9b6b7f1892a3a83c47626d8f4012fe225fa56",
             "98edbc4e4be87833f608d1f2628f401f3008637283e6bb3adcbdbce1a3f83353"),
            ("figure7",
             "d0b59d5e33713bb17eb40a524333cd020beee54480448b56039e0982ea503af5",
             "c853c26c7e1ec2777af5eaa06d26a5460e3d3b0b49609d42a2349f9a35cc4f24"),
            ("ablation",
             "6b79a4cdcab089b9de216e2a2928714ab7ed9ed9d19f9c2514d377bb660ce72f",
             "74dea2edc9fc3a511dfdde592e9473406cc2f0cd9773a1c25a31739ab3ccc777"),
            ("figure8",
             "d18978d815a5ea8acf5e4ee084189e45319ad0abb945d17bba7c9c37248e56dd",
             "c3e5daf7da93ec468969df8fe2ba54ac0957578181c1eb83252d622f65250854"),
            ("pareto",
             "e84572e7e730b958637fc5172ce312927d6c4033b5283f8baa4b3964bd0cfb21",
             "3104aabbdd70bfc66045286f984ee389cdd23ef27577d2880ae1bf1d35a61c51"),
        ],
    )
    def test_cli_telemetry_bytes(
        self, artifact, metrics, events, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(runner, "_SWEEP_MEMO", {})
        monkeypatch.delenv("REPRO_STORE", raising=False)
        m_path, e_path = tmp_path / "m.json", tmp_path / "e.json"
        argv = [artifact, "--metrics", str(m_path), "--events", str(e_path)]
        assert main(argv) == 0
        capsys.readouterr()
        got = tuple(
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in (m_path, e_path)
        )
        assert got == (metrics, events)

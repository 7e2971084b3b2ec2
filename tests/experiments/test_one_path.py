"""Every driver reaches the engine through ``sweep_map`` plan cells.

Three properties of the one production path: no driver runs a plan
outside a plan-cell evaluation inside ``sweep_map`` (``faults``, whose
cell drives its own engines chunk by chunk, is the one exception); the
sort-variant cells that ``ablation``, ``oblivious`` and ``external``
share with ``table1`` are served by the memo in a process that ran
``table1``; and ``bender`` replays from a store byte for byte.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments import ALL_EXPERIMENTS, runner
from repro.experiments.extensions import _fault_cell
from repro.experiments.runner import sort_variant_seconds
from repro.simknl import batch
from repro.simknl.engine import Engine
from repro.telemetry import names as _tn
from repro.telemetry import runtime as _tm

GOLDEN = Path(__file__).resolve().parents[1] / "golden"

#: The drivers whose default-model sort-variant cells repeat table1's,
#: with how many such cells each runs.
SHARED_WITH_TABLE1 = {"ablation": 4, "oblivious": 4, "external": 1}


@pytest.fixture
def fresh_memo(monkeypatch):
    """An empty process memo and no default store: every cell runs."""
    monkeypatch.setattr(runner, "_SWEEP_MEMO", {})
    monkeypatch.delenv("REPRO_STORE", raising=False)


def _callers() -> set:
    codes = set()
    frame = sys._getframe(2)
    while frame is not None:
        codes.add(frame.f_code)
        frame = frame.f_back
    return codes


def test_drivers_reach_the_engine_only_through_plan_cells(
    monkeypatch, fresh_memo
):
    stray: list[str] = []
    inside_sweep = runner.sweep_map.__code__
    plan_cells = {batch.evaluate_cells.__code__, _fault_cell.__code__}

    def guard(name, real):
        def checked(*args, **kwargs):
            callers = _callers()
            if inside_sweep not in callers or not callers & plan_cells:
                stray.append(f"{driver}: {name}")
            return real(*args, **kwargs)

        return checked

    monkeypatch.setattr(Engine, "run", guard("Engine.run", Engine.run))
    monkeypatch.setattr(
        batch, "run_batch", guard("run_batch", batch.run_batch)
    )
    for driver, run in ALL_EXPERIMENTS.items():
        run()
    assert stray == []


def _engine_runs(name: str) -> float:
    with _tm.telemetry_session() as tel:
        ALL_EXPERIMENTS[name]()
    return tel.metrics.counter(_tn.ENGINE_RUNS_TOTAL).value()


def test_table1_serves_shared_sort_variant_cells(monkeypatch, fresh_memo):
    alone = {}
    for name in SHARED_WITH_TABLE1:
        monkeypatch.setattr(runner, "_SWEEP_MEMO", {})
        alone[name] = _engine_runs(name)
    monkeypatch.setattr(runner, "_SWEEP_MEMO", {})
    ALL_EXPERIMENTS["table1"]()
    built: list[tuple] = []
    real = sort_variant_seconds.plan_batch

    def spy(cells):
        built.extend(cells)
        return real(cells)

    monkeypatch.setattr(sort_variant_seconds, "plan_batch", spy)
    saved = {name: alone[name] - _engine_runs(name) for name in alone}
    assert saved == SHARED_WITH_TABLE1
    # Only ablation's non-default cost models are left to build.
    assert len(built) == 16
    assert all(cell[3] is not None for cell in built)


def test_bender_store_replays_its_golden(tmp_path, capsys):
    store = str(tmp_path / "store")
    assert main(["bender", "--store", store, "--csv", "-"]) == 0
    capsys.readouterr()
    assert main(["replay", "bender", "--store", store, "--csv", "-"]) == 0
    replayed = capsys.readouterr().out.encode()
    assert replayed == (GOLDEN / "bender.out").read_bytes()

"""Smoke tests: every example script runs end to end, in seconds."""

from __future__ import annotations

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

SCRIPTS = [
    ("out_of_core_sort.py", []),
    ("quickstart.py", []),
    ("reproduce_paper.py", []),
    ("store_replay.py", []),
    ("telemetry_tour.py", []),
    ("three_level_memory.py", ["25"]),
    ("trace_pipeline.py", []),
    ("tune_copy_threads.py", ["4"]),
]


def test_scripts_list_every_example():
    """An example added or deleted without updating SCRIPTS fails here."""
    on_disk = sorted(p.name for p in EXAMPLES.glob("*.py"))
    assert [s for s, _ in SCRIPTS] == on_disk


@pytest.mark.parametrize("script,argv", SCRIPTS, ids=[s for s, _ in SCRIPTS])
def test_example_runs(script, argv, capsys, monkeypatch):
    path = EXAMPLES / script
    assert path.exists(), f"missing example {script}"
    monkeypatch.setattr(sys, "argv", [str(path), *argv])
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip(), f"{script} produced no output"


def test_trace_example_writes_chrome_trace(tmp_path, capsys, monkeypatch):
    path = EXAMPLES / "trace_pipeline.py"
    trace = tmp_path / "trace.json"
    monkeypatch.setattr(sys, "argv", [str(path), str(trace)])
    runpy.run_path(str(path), run_name="__main__")
    assert trace.exists()
    assert "traceEvents" in trace.read_text()


def test_reproduce_paper_reports_table1_fidelity(capsys, monkeypatch):
    path = EXAMPLES / "reproduce_paper.py"
    monkeypatch.setattr(sys, "argv", [str(path)])
    runpy.run_path(str(path), run_name="__main__")
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert last == "Table 1 fidelity: mean |deviation| = 5.0% over 30 cells"

"""Import-footprint guard for the serial CLI path.

A plain ``repro-knl <artifact>`` run must not load the parallel sweep
machinery or dependencies the simulator does not use: their import
cost dominated cold-start wall time before they were taken off the
path. NumPy is one of them: every artifact's batches are small enough
for the plain-float evaluator, and its import was ~40 % of a cold
run. The checks inspect ``sys.modules`` in a fresh interpreter, so
they are deterministic (no wall-clock threshold).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

#: Modules a serial CLI run must never load.
FORBIDDEN = (
    "networkx",
    "scipy",
    "multiprocessing",
    "concurrent.futures",
    "repro.experiments.pool",
    "repro.experiments.service",
    "repro.experiments.client",
)

_CODE = """
import contextlib, io, json, sys
import repro.cli
with contextlib.redirect_stdout(io.StringIO()):
    status = repro.cli.main(["table2", "--csv", "-"])
print(json.dumps({"status": status, "modules": sorted(sys.modules)}))
"""


_NO_NUMPY = """
import contextlib, io, json, sys
import repro.cli
from repro.experiments import ALL_EXPERIMENTS
report = []
for name in ALL_EXPERIMENTS:
    with contextlib.redirect_stdout(io.StringIO()):
        status = repro.cli.main([name, "--csv", "-"])
    report.append([name, status, "numpy" in sys.modules])
print(json.dumps(report))
"""


def _run(code: str):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return json.loads(proc.stdout)


def test_serial_cli_run_skips_heavy_imports():
    report = _run(_CODE)
    assert report["status"] in (None, 0)
    loaded = set(report["modules"])
    assert "repro.experiments.table2" in loaded
    assert [m for m in FORBIDDEN if m in loaded] == []


def test_no_artifact_imports_numpy():
    """All artifacts, one after another in one process as ``repro-knl
    all`` runs them: none may load NumPy."""
    report = _run(_NO_NUMPY)
    assert len(report) == 18
    assert [name for name, status, _ in report if status not in (None, 0)] == []
    assert [name for name, _, numpy in report if numpy] == []

"""Import-footprint guard for the serial CLI path.

A plain ``repro-knl <artifact>`` run must not load the parallel sweep
machinery or dependencies the simulator does not use: their import
cost dominated cold-start wall time before they were taken off the
path. The check inspects ``sys.modules`` in a fresh interpreter, so it
is deterministic (no wall-clock threshold).
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


def test_serial_cli_run_skips_heavy_imports():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", _CODE],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    report = json.loads(proc.stdout)
    assert report["status"] in (None, 0)
    loaded = set(report["modules"])
    assert "repro.experiments.table2" in loaded
    assert [m for m in FORBIDDEN if m in loaded] == []

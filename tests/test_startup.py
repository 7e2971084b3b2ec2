"""Import-footprint guard for the serial CLI path.

A plain ``repro-knl <artifact>`` run must not load the parallel sweep
machinery or dependencies the simulator does not use: their import
cost dominated cold-start wall time before they were taken off the
path. NumPy is one of them: the simulator evaluates every plan in
plain floats, and only the line-level cache oracle imports NumPy,
whose import was ~40 % of a cold run. So are telemetry, the result
store and cell hashing: a plain run (no ``--metrics``, ``--events``,
``--store`` or ``replay``) never reaches them, and they load on first
use. The checks inspect
``sys.modules`` in a fresh interpreter, so they are deterministic (no
wall-clock threshold).
"""

from __future__ import annotations

import ast
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


#: Modules only a session, a store or a replay needs.
ON_FIRST_USE = (
    "repro.telemetry.names",
    "repro.telemetry.registry",
    "repro.telemetry.events",
    "repro.telemetry.export",
    "repro.experiments.store",
    "hashlib",
    "json",
)

# Reports through ``repr``: printing JSON would import ``json``.
_PLAIN = """
import contextlib, io, sys
import repro.cli
from repro.experiments import ALL_EXPERIMENTS
statuses = []
for name in ALL_EXPERIMENTS:
    with contextlib.redirect_stdout(io.StringIO()):
        statuses.append(repro.cli.main([name, "--csv", "-"]))
print(repr((statuses, sorted(sys.modules))))
"""

_FIRST_USE = """
import contextlib, io, sys
import repro.cli
argv = {argv!r}
with contextlib.redirect_stdout(io.StringIO()):
    status = repro.cli.main(argv)
print(repr((status, sorted(sys.modules))))
"""


def _run(code: str, parse=json.loads):
    env = {k: v for k, v in os.environ.items() if k != "REPRO_STORE"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return parse(proc.stdout)


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


def test_only_the_cache_oracle_imports_numpy():
    """Every module under ``src/repro``, with module-level and
    function-local imports alike: only the line-level cache oracle
    ``simknl/cache.py`` may import NumPy."""
    package = Path(__file__).resolve().parents[1] / "src" / "repro"
    importers = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            if any(name.partition(".")[0] == "numpy" for name in names):
                importers.append(path.relative_to(package).as_posix())
                break
    assert importers == ["simknl/cache.py"]


def test_plain_run_loads_nothing_on_first_use():
    """All artifacts in one process, as ``repro-knl all`` runs them:
    none loads telemetry beyond the session switch, the result store,
    ``hashlib`` or ``json``."""
    statuses, modules = _run(_PLAIN, ast.literal_eval)
    assert len(statuses) == 18
    assert [s for s in statuses if s != 0] == []
    assert [m for m in ON_FIRST_USE if m in modules] == []


def test_session_store_and_replay_load_what_they_need(tmp_path):
    store = str(tmp_path / "store")
    runs = [
        (["table2", "--metrics", str(tmp_path / "m.json")],
         ("repro.telemetry.registry", "repro.telemetry.export", "json")),
        (["table2", "--store", store],
         ("repro.experiments.store", "hashlib", "json")),
        (["replay", "table2", "--store", store],
         ("repro.experiments.store", "hashlib", "json")),
    ]
    for argv, needed in runs:
        code = _FIRST_USE.format(argv=argv)
        status, modules = _run(code, ast.literal_eval)
        assert status == 0, argv
        assert [m for m in needed if m not in modules] == [], argv
    assert json.loads((tmp_path / "m.json").read_text())["metrics"]

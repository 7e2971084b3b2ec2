"""Byte-for-byte golden outputs for every shipped artifact.

``tests/golden/<artifact>.out`` is the stdout of
``python -m repro <artifact> --csv -``. Each test re-renders the
artifact through the CLI and compares bytes, so a refactor that changes
any digit of any table or figure fails here. A second check ties each
golden file to the digest the repo benchmark verifies
(``bench/expected.json``), so the goldens and the benchmark agree on
what the correct bytes are. A third renders every artifact with the
tensor path switched off, so the per-phase reference loop
(``Engine.run``) alone must reproduce the same bytes. See
``tests/golden/README.md`` for how to regenerate them.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments import runner
from repro.simknl import batch

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"
EXPECTED = json.loads((ROOT / "bench" / "expected.json").read_text())["sha256"]


def test_golden_set_matches_benchmark():
    assert sorted(p.stem for p in GOLDEN.glob("*.out")) == sorted(EXPECTED)


@pytest.mark.parametrize("artifact", sorted(EXPECTED))
def test_cli_output_matches_golden(artifact, capsys):
    golden = (GOLDEN / f"{artifact}.out").read_bytes()
    assert main([artifact, "--csv", "-"]) == 0
    assert capsys.readouterr().out.encode() == golden


@pytest.mark.parametrize("artifact", sorted(EXPECTED))
def test_golden_is_benchmark_digest(artifact):
    golden = (GOLDEN / f"{artifact}.out").read_bytes()
    assert hashlib.sha256(golden).hexdigest() == EXPECTED[artifact]


@pytest.mark.parametrize("artifact", sorted(EXPECTED))
def test_reference_loop_matches_golden(artifact, capsys, monkeypatch):
    """Every ``run_batch`` binding runs its plans one by one through
    ``Engine.run``; neither fast evaluator may be reached."""

    def reference(engine, plans):
        return [engine.run(p) for p in plans]

    def no_fast_path(*args):
        raise AssertionError("fast path reached")

    tensor = batch.run_batch
    bound = [
        module
        for name, module in sys.modules.items()
        if name.startswith("repro.")
        and getattr(module, "run_batch", None) is tensor
    ]
    assert len(bound) >= 3  # batch itself, the node and the NVM pipeline
    for module in bound:
        monkeypatch.setattr(module, "run_batch", reference)
    monkeypatch.setattr(batch, "run_lowered", no_fast_path)
    monkeypatch.setattr(batch, "run_rows", no_fast_path)
    monkeypatch.setattr(runner, "_SWEEP_MEMO", {})
    monkeypatch.delenv("REPRO_STORE", raising=False)
    golden = (GOLDEN / f"{artifact}.out").read_bytes()
    assert main([artifact, "--csv", "-"]) == 0
    assert capsys.readouterr().out.encode() == golden


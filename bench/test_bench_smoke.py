"""Smoke test of the benchmark itself (not part of the tier-1 suite).

Run with ``python -m pytest bench/test_bench_smoke.py``. Each run goes
through ``bench/run.py --quick`` in a scratch copy of the benchmark
whose ``src`` links to the repository's, so nothing is written into
the repository.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402


def _checkout(tmp: Path, with_src: bool = True) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", tmp / "BENCHMARK.json")
    shutil.copytree(
        BENCH, tmp / "bench",
        ignore=shutil.ignore_patterns("out", "results", "__pycache__"),
    )
    if with_src:
        (tmp / "src").symlink_to(ROOT / "src", target_is_directory=True)
    return tmp


def _run(checkout: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--quick", *args],
        cwd=checkout, capture_output=True, text=True, timeout=600,
    )


@pytest.fixture(scope="module")
def checkout(tmp_path_factory) -> Path:
    return _checkout(tmp_path_factory.mktemp("checkout"))


@pytest.fixture(scope="module")
def traced(checkout) -> dict:
    proc = _run(checkout, "--trace", "1", "--out", "traced.json")
    assert proc.returncode == 0, proc.stderr
    return json.loads((checkout / "traced.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
def test_quick_run_emits_every_metric(checkout, traced, trace):
    if trace:
        result = traced
    else:
        proc = _run(checkout, "--out", "plain.json")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1])["correct"]
        result = json.loads((checkout / "plain.json").read_text())
    specs = SPEC["per_layer" if trace else "end_to_end"]
    assert [r["workload"] for r in result["runs"]] == [
        w["name"] for w in SPEC["workloads"]
    ]
    for r in result["runs"]:
        assert r["correct"] and r["failed"] == 0, r["errors"]
        assert r["absent"] == []
        for m in specs:
            assert r["metrics"][m["name"]]["unit"] == m["unit"]


def test_traced_self_times_fit_in_their_op(checkout, traced):
    for w in SPEC["workloads"]:
        trace = json.loads(
            (checkout / "bench" / "out" / f"{w['name']}.trace.json").read_text()
        )
        events = trace["traceEvents"]
        child_us = defaultdict(float)
        for e in events:
            if e["args"]["parent"] is not None:
                child_us[e["args"]["parent"]] += e["dur"]
        op_us, self_us = {}, defaultdict(float)
        for e in events:
            if e["name"] == "op":
                op_us[e["args"]["op"]] = e["dur"]
            else:
                self_us[e["args"]["op"]] += e["dur"] - child_us[e["args"]["id"]]
        assert op_us, w["name"]
        for op, total in self_us.items():
            assert total <= op_us[op] + 1.0, (w["name"], op)


def test_tampered_digest_counts_as_failure(tmp_path):
    checkout = _checkout(tmp_path)
    expected = checkout / "bench" / "expected.json"
    data = json.loads(expected.read_text())
    data["sha256"]["table2"] = "0" * 64
    expected.write_text(json.dumps(data))
    proc = _run(checkout, "--workload", "suite")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert not result["correct"]
    assert result["failed"] >= 1


def test_without_program_exits_nonzero_and_prints_no_result(tmp_path):
    proc = _run(_checkout(tmp_path, with_src=False), "--workload", "suite")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_missing_target_is_reported_absent(monkeypatch):
    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + (
        ("gone.function", "repro.cli:no_such_function", None, None),
        ("gone.module", "repro.no_such_module:f", None, None),
    ))
    import repro.cli

    t = tracer.Tracer()
    t.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert repro.cli.main(["table2", "--csv", "-"]) == 0
    finally:
        t.uninstall()
    assert {"gone.function", "gone.module"} <= set(t.absent_layers())
    assert "cli.main" not in t.absent_layers()
    assert t.calls["cli.main"] == 1 and t.calls["driver.table2"] == 1

    fake = SimpleNamespace(
        agg={"self_ns": dict(t.self_ns), "total_ns": dict(t.total_ns),
             "calls": dict(t.calls), "counts": dict(t.counts)},
        ops=[{"s": 1.0, "traced": True}, {"s": 1.0, "traced": False}],
        absent={"store.get"}, store_bytes=[], imports={},
    )
    values, absent = run.layer_metrics(fake)
    assert {"store.get_ms", "store.gets", "store.hit_ratio"} <= set(absent)
    assert "store.get_ms" not in values
    assert values["driver.table2_ms"] > 0

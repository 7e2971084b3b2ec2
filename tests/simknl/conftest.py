"""Fixtures that observe which evaluation path a plan took."""

from __future__ import annotations

import pytest

from repro.simknl import batch


@pytest.fixture
def tensor_rows(monkeypatch) -> list[int]:
    """Rows evaluated per :func:`batch.run_lowered` call that returned
    results — the tensor path, used by ``Engine.run`` and ``run_batch``."""
    rows: list[int] = []
    real = batch.run_lowered

    def counting(engine, lowered, tensor):
        results = real(engine, lowered, tensor)
        if results is not None:
            rows.append(len(results))
        return results

    monkeypatch.setattr(batch, "run_lowered", counting)
    return rows


@pytest.fixture
def no_tensor(monkeypatch) -> None:
    """Fail the test if the tensor path is entered: the run must stay on
    the per-phase reference loop."""

    def refuse(engine, lowered, tensor):
        raise AssertionError("run_lowered called on a reference-loop run")

    monkeypatch.setattr(batch, "run_lowered", refuse)

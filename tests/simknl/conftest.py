"""Fixtures that observe which evaluation path a plan took, and the
reference engine the fast path is checked against."""

from __future__ import annotations

from typing import Callable, Iterable

import pytest

from repro.simknl import batch
from repro.simknl.engine import Engine
from repro.simknl.flows import Resource, allocate_rates


@pytest.fixture
def tensor_rows(monkeypatch) -> list[int]:
    """Rows evaluated per :func:`batch.run_lowered` call that returned
    results — the tensor path, which only ``run_batch`` takes."""
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


@pytest.fixture(scope="session")
def reference_engine() -> Callable[[Iterable[Resource]], Engine]:
    """Make the oracle: an :class:`Engine` whose ``run`` is the
    per-phase reference loop with a fresh water-filling solve per
    phase. Its ``_allocate`` calls :func:`allocate_rates` directly, so
    the process-wide ``_RATE_MEMO`` is neither read nor filled.
    Session-scoped, so Hypothesis tests may use it."""

    def make(resources: Iterable[Resource]) -> Engine:
        engine = Engine(resources)

        def allocate(live):
            rates = allocate_rates(live, engine.resources)
            return [rates[id(f)] for f in live]

        engine._allocate = allocate
        return engine

    return make

"""Fixtures that observe which evaluation path a plan took, run the
fast evaluator directly, and make the reference engine the fast path
is checked against."""

from __future__ import annotations

from typing import Callable, Iterable

import pytest

from repro.simknl import batch
from repro.simknl.engine import Engine
from repro.simknl.flows import Resource, allocate_rates


# Bound at import, before any test patches it, so ``fast_path`` calls
# the real evaluator and the path spies never see its calls.
run_rows = batch.run_rows


@pytest.fixture
def fast_rows(monkeypatch) -> list[int]:
    """Rows evaluated per fast-path call that returned results — a
    :func:`batch.run_rows` call, which only ``run_batch`` makes."""
    rows: list[int] = []

    def counting(real):
        def spy(engine, lowered, plan_rows):
            results = real(engine, lowered, plan_rows)
            if results is not None:
                rows.append(len(results))
            return results

        return spy

    monkeypatch.setattr(batch, "run_rows", counting(batch.run_rows))
    return rows


@pytest.fixture
def no_fast_path(monkeypatch) -> None:
    """Fail the test if the fast evaluator is entered: the run must
    stay on the per-phase reference loop."""

    def refuse(engine, lowered, plan_rows):
        raise AssertionError("fast path called on a reference-loop run")

    monkeypatch.setattr(batch, "run_rows", refuse)


@pytest.fixture(scope="session")
def fast_path() -> Callable[[Engine, list], list | None]:
    """Evaluate one structurally identical batch of plans on the fast
    evaluator directly, whatever its size: ``run_rows``'s result list,
    or ``None`` where it declines. ``run_batch`` alone would hand a
    single plan without a repeated block to ``Engine.run``.
    Session-scoped, so Hypothesis tests may use it."""

    def evaluate(engine: Engine, plans: list) -> list | None:
        lowered = batch._lowered(plans[0])  # run_batch's shape
        return run_rows(engine, lowered, [p.row for p in plans])

    return evaluate


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

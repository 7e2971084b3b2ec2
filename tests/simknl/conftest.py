"""Fixtures that observe which evaluation path a plan took, run both
fast evaluators directly, and make the reference engine the fast path
is checked against."""

from __future__ import annotations

from typing import Callable, Iterable

import pytest

from repro.simknl import batch
from repro.simknl.engine import Engine
from repro.simknl.flows import Resource, allocate_rates


#: The two fast evaluators ``run_batch`` picks between by batch size.
FAST_PATHS = ("run_rows", "run_lowered")

# Bound at import, before any test patches them, so ``fast_paths``
# calls the real evaluators and the path spies never see its calls.
run_rows, run_lowered = batch.run_rows, batch.run_lowered


@pytest.fixture
def fast_rows(monkeypatch) -> list[int]:
    """Rows evaluated per fast-path call that returned results — a
    :func:`batch.run_rows` or :func:`batch.run_lowered` call, which
    only ``run_batch`` makes."""
    rows: list[int] = []

    def counting(real):
        def spy(engine, lowered, rows_or_tensor):
            results = real(engine, lowered, rows_or_tensor)
            if results is not None:
                rows.append(len(results))
            return results

        return spy

    for name in FAST_PATHS:
        monkeypatch.setattr(batch, name, counting(getattr(batch, name)))
    return rows


@pytest.fixture
def no_fast_path(monkeypatch) -> None:
    """Fail the test if either fast evaluator is entered: the run must
    stay on the per-phase reference loop."""

    def refuse(engine, lowered, rows_or_tensor):
        raise AssertionError("fast path called on a reference-loop run")

    for name in FAST_PATHS:
        monkeypatch.setattr(batch, name, refuse)


@pytest.fixture(scope="session")
def fast_paths() -> Callable[[Engine, list], dict[str, list | None]]:
    """Evaluate one structurally identical batch of plans on both fast
    evaluators directly, whatever its size: ``{"run_rows": ...,
    "run_lowered": ...}``, each a result list or ``None`` (declined).
    ``run_batch`` alone would give small test batches to ``run_rows``
    only. Session-scoped, so Hypothesis tests may use it."""

    def evaluate(engine: Engine, plans: list) -> dict[str, list | None]:
        lowered, tensor = batch.lower_plans(plans)
        return {
            "run_rows": run_rows(engine, lowered, [p.row for p in plans]),
            "run_lowered": run_lowered(engine, lowered, tensor),
        }

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

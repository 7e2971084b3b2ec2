"""The sort-variant cell is a group builder.

``sort_variant_seconds.plan_batch(cells)`` builds a whole sweep's cells
in one call, sharing each distinct block's scalars and each template
between the cells of that call. These tests pin what that sharing may
and may not change: every cell of a group builds the same template,
row and name (or raises the same error) as the cell built alone;
``evaluate_cells`` runs each distinct plan once yet observes every
cell; and nothing is carried from one sweep call to the next.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import mlm_sort, parallel_sort
from repro.algorithms.costs import DEFAULT_COST
from repro.errors import ConfigError
from repro.experiments import runner
from repro.experiments.runner import VARIANTS, sort_variant_seconds, sweep_map
from repro.simknl import batch
from repro.telemetry import telemetry_session

#: Megachunks that fit addressable MCDRAM, tile n fully or leave a
#: ragged tail, exceed n, or (3 B elements, 24 GB) overflow flat mode.
MEGACHUNKS = (None, 250_000_000, 700_000_000, 1_000_000_000, 3_000_000_000)
SIZES = (0, 7, 500_000_000, 1_999_999_999, 2_000_000_000, 6_000_000_000)
COSTS = (None, DEFAULT_COST, DEFAULT_COST.replace(chunk_overhead_s=0.0))

cell_strategy = st.builds(
    lambda variant, n, order, cost, mega, arity: (
        variant, n, order, cost, mega
    )[:arity],
    st.sampled_from(VARIANTS),
    st.sampled_from(SIZES),
    st.sampled_from(("random", "reverse", "sorted")),
    st.sampled_from(COSTS),
    st.sampled_from(MEGACHUNKS),
    st.integers(3, 5),
)


def _build(cells: list[tuple]):
    """The cells' batches, or the ConfigError building them raised."""
    try:
        return sort_variant_seconds.plan_batch(cells)
    except ConfigError as exc:
        return exc


@settings(max_examples=60, deadline=None)
@given(st.lists(cell_strategy, min_size=1, max_size=12))
def test_group_builds_each_cell_as_alone(cells):
    alone = [_build([cell]) for cell in cells]
    group = _build(cells)
    errors = [a for a in alone if isinstance(a, ConfigError)]
    if errors:
        # The group fails where serial per-cell builds would: at the
        # first failing cell, with its message.
        assert isinstance(group, ConfigError)
        assert str(group) == str(errors[0])
        return
    assert len(group) == len(cells)
    for (single,), built in zip(alone, group):
        assert built.resources is single.resources
        (plan,) = built.plans
        (ref,) = single.plans
        assert plan.template is ref.template
        assert repr(list(plan.row)) == repr(list(ref.row))
        assert plan.name == ref.name


def test_oversized_flat_megachunk_and_empty_input_raise_in_groups():
    ok = ("MLM-sort", 2_000_000_000, "random")
    with pytest.raises(ConfigError, match="exceeds addressable MCDRAM"):
        sort_variant_seconds.plan_batch(
            [ok, ("MLM-sort", 6_000_000_000, "random", None, 3_000_000_000)]
        )
    with pytest.raises(ConfigError, match="n must be >= 1"):
        sort_variant_seconds.plan_batch([ok, ("MLM-ddr", 0, "random")])
    with pytest.raises(ConfigError, match="n and threads must be positive"):
        sort_variant_seconds.plan_batch([ok, ("GNU-cache", 0, "random")])


@pytest.fixture
def fresh(monkeypatch):
    monkeypatch.setattr(runner, "_SWEEP_MEMO", {})
    monkeypatch.delenv("REPRO_STORE", raising=False)


def test_each_distinct_plan_runs_once(monkeypatch, fresh):
    """GNU ignores the megachunk, so these six cells hold two plans on
    one template: one two-row batch, which ``run_batch`` evaluates on
    ``run_rows``. Each cell is still observed, so the telemetry equals
    six direct calls'."""
    cells = [
        ("GNU-flat", 2_000_000_000, "random", None, mega)
        for mega in (None, 250_000_000, 500_000_000, 1_000_000_000)
    ] + [
        ("GNU-flat", 4_000_000_000, "random", None, mega)
        for mega in (None, 1_000_000_000)
    ]
    rows: list[int] = []
    real = batch.run_rows

    def counting(engine, lowered, plan_rows):
        rows.append(len(plan_rows))
        return real(engine, lowered, plan_rows)

    monkeypatch.setattr(batch, "run_rows", counting)
    with telemetry_session() as swept:
        got = sweep_map(sort_variant_seconds, cells, memo={})
    assert rows == [2]
    with telemetry_session() as direct:
        want = [sort_variant_seconds(*cell) for cell in cells]
    assert [t.hex() for t in got] == [t.hex() for t in want]
    assert json.dumps(swept.snapshot(), sort_keys=True) == json.dumps(
        direct.snapshot(), sort_keys=True
    )
    assert [(e.name, e.time, e.attrs) for e in swept.events] == [
        (e.name, e.time, e.attrs) for e in direct.events
    ]


def test_nothing_is_reused_across_sweep_calls(monkeypatch, fresh):
    """Each sweep call computes its sort levels afresh: the planners and
    their scalars live only as long as one group build."""
    calls: list[int] = []
    real = mlm_sort.sort_levels

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(mlm_sort, "sort_levels", counting)
    monkeypatch.setattr(parallel_sort, "sort_levels", counting)
    cells = [
        (variant, k * 500_000_000, order, None, mega)
        for variant in VARIANTS
        for k in (1, 4, 9)
        for order in ("random", "reverse")
        for mega in (None, 250_000_000)
    ]
    counts = []
    for _ in range(2):
        calls.clear()
        sweep_map(sort_variant_seconds, cells, memo={})
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0

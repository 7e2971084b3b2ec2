"""The sort-variant cell is a group builder.

``sort_variant_seconds.plan_batch(cells)`` builds a whole sweep's cells
in one call, sharing each distinct block's scalars and each template
between the cells of that call. Cells that denote one plan share one
batch: those of one planner (variant, order, cost identity) whose plan
inputs are equal in their exact ``marshal`` form, namely ``n`` and, for
MLM-sort and MLM-ddr only, the effective megachunk ``min(megachunk,
n)``, with ``paper_megachunk(n)`` for None. These tests pin what that
sharing may and may not change: every cell of a group builds the same
template, row and name (or raises the same error) as the cell built
alone; a 600-cell grid builds exactly one plan per distinct input;
``evaluate_cells`` runs and finishes each distinct plan once yet
observes every cell; and nothing is carried from one sweep call to the
next.
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
from repro.simknl.engine import Plan
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


def _same_as_alone(built, cell) -> bool:
    (single,) = _build([cell])
    (plan,) = built.plans
    (ref,) = single.plans
    return (
        built.resources is single.resources
        and plan.template is ref.template
        and repr(list(plan.row)) == repr(list(ref.row))
        and plan.name == ref.name
    )


@pytest.mark.parametrize(
    "cells",
    [
        [
            ("MLM-sort", 2_000_000_000, "random", None, 1e9),
            ("MLM-sort", 2_000_000_000, "random", None, 1_000_000_000),
        ],
        [
            ("MLM-ddr", 2e9, "random", None, 3e9),
            ("MLM-ddr", 2_000_000_000, "random", None, 3_000_000_000),
        ],
        [
            ("GNU-flat", 1e9, "random"),
            ("GNU-flat", 1_000_000_000, "random"),
        ],
        [
            ("MLM-sort", 1_000_000_000, "random", None, True),
            ("MLM-sort", 1_000_000_000, "random", None, 1),
        ],
    ],
    ids=["float-megachunk", "float-n", "gnu-float-n", "bool-megachunk"],
)
def test_equal_but_differently_typed_inputs_build_apart(cells):
    """Sharing compares inputs type-exactly, as ``_dedup`` compares
    cells: numerically equal cells of different types build as each
    cell alone, not as the first of them."""
    built = sort_variant_seconds.plan_batch(cells)
    assert built[0] is not built[1]
    assert all(_same_as_alone(b, cell) for b, cell in zip(built, cells))


@pytest.mark.parametrize(
    "valid, invalid, error",
    [
        (
            ("MLM-sort", 2_000_000_000, "random", None, None),
            ("MLM-sort", 2_000_000_000, "random", None, 0),
            "megachunk_elements must be >= 1",
        ),
        (
            ("MLM-ddr", 6_000_000_000, "random", None, 1_500_000_000),
            ("MLM-ddr", 6_000_000_000, "random", None, False),
            "megachunk_elements must be >= 1",
        ),
        (
            ("MLM-sort", 1, "random", None, 1),
            ("MLM-sort", 0, "random", None, 1),
            "n must be >= 1",
        ),
        (
            ("MLM-implicit", 1, "random"),
            ("MLM-implicit", 0, "random"),
            "n must be >= 1",
        ),
        (
            ("GNU-cache", 1, "random"),
            ("GNU-cache", 0, "random"),
            "n and threads must be positive",
        ),
    ],
    ids=[
        "megachunk-0", "megachunk-false", "mlm-n-0", "implicit-n-0", "gnu-n-0"
    ],
)
def test_invalid_cell_never_shares_a_valid_plan(valid, invalid, error):
    """An invalid cell placed after the valid cell it would resolve
    next to raises its alone-error at that cell."""
    with pytest.raises(ConfigError) as alone:
        sort_variant_seconds.plan_batch([invalid])
    assert str(alone.value) == error
    with pytest.raises(ConfigError) as grouped:
        sort_variant_seconds.plan_batch([valid, valid, invalid, valid])
    assert str(grouped.value) == error


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
    """GNU ignores the megachunk, so the six GNU cells hold two plans on
    one template: one two-row batch, which ``run_batch`` evaluates on
    ``run_rows``. The MLM-sort cells' megachunks resolve alike: None is
    1 B below 6 B elements, and a megachunk of at least ``n`` is ``n``.
    Their seven cells hold three plans, two of them on one template.
    Each distinct plan is run and finished once; each cell is still
    observed and still calls its planner, so the telemetry
    (``sort.megachunks_total`` included) equals thirteen direct
    calls'."""
    cells = [
        ("GNU-flat", 2_000_000_000, "random", None, mega)
        for mega in (None, 250_000_000, 500_000_000, 1_000_000_000)
    ] + [
        ("GNU-flat", 4_000_000_000, "random", None, mega)
        for mega in (None, 1_000_000_000)
    ] + [
        ("MLM-sort", n, "random", None, mega)
        for n in (2_000_000_000, 4_000_000_000)
        for mega in (None, 1_000_000_000)
    ] + [
        ("MLM-sort", 1_000_000_000, "random", None, mega)
        for mega in (None, 1_000_000_000, 1_500_000_000)
    ]
    rows: list[int] = []
    real = batch.run_rows

    def counting(engine, lowered, plan_rows):
        rows.append(len(plan_rows))
        return real(engine, lowered, plan_rows)

    finished: list[int] = []
    real_build = sort_variant_seconds.plan_batch

    def spy(group):
        built = real_build(group)
        for item in {id(item): item for item in built}.values():
            finish = item.finish
            item.finish = lambda runs, f=finish: finished.append(1) or f(runs)
        return built

    monkeypatch.setattr(batch, "run_rows", counting)
    monkeypatch.setattr(sort_variant_seconds, "plan_batch", spy)
    with telemetry_session() as swept:
        got = sweep_map(sort_variant_seconds, cells, memo={})
    assert rows == [2, 2]
    assert len(finished) == 5
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


#: The full grid's megachunk sizes besides None, in elements.
GRID_MEGACHUNKS = (250_000_000, 500_000_000, 1_000_000_000, 1_500_000_000)


def _effective_inputs(cell: tuple) -> tuple:
    """What a sort-variant cell's plan reads, derived here from the
    paper's rules rather than from the runner."""
    variant, n, order, _, mega = cell
    if variant not in ("MLM-sort", "MLM-ddr"):
        return variant, order, n
    if mega is None:
        mega = 1_500_000_000 if n >= 6_000_000_000 else 1_000_000_000
    return variant, order, n, min(mega, n)


def test_full_grid_builds_each_distinct_plan_once(monkeypatch, fresh):
    """All 600 cells of the paper's sort key space (5 variants, 12
    sizes of k * 500 M, 2 orders, 5 megachunks) in one sweep: one plan
    per distinct effective input, results bit-identical to direct
    per-cell calls."""
    cells = [
        (variant, k * 500_000_000, order, None, mega)
        for variant in VARIANTS
        for k in range(1, 13)
        for order in ("random", "reverse")
        for mega in (None, *GRID_MEGACHUNKS)
    ]
    assert len(cells) == 600
    distinct = {_effective_inputs(cell) for cell in cells}
    assert len(distinct) == 252
    want = [sort_variant_seconds(*cell) for cell in cells]
    built: list[int] = []
    real = Plan.from_template.__func__

    def counting(cls, template, row, name):
        built.append(1)
        return real(cls, template, row, name)

    monkeypatch.setattr(Plan, "from_template", classmethod(counting))
    got = sweep_map(sort_variant_seconds, cells, memo={})
    assert len(built) == len(distinct)
    assert [t.hex() for t in got] == [t.hex() for t in want]

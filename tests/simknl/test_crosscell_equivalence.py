"""Tests pinning cross-cell batching to per-cell runs.

``batch.run_batch`` evaluates N structurally identical plans on one
lowered shape, row by row in plain floats (``run_rows``). These tests
hold ``run_batch`` and ``run_rows``, called directly on the same
lowered batch, bit-identical — ``elapsed``, ``phase_times``,
``traffic`` — to ``[engine.run(p) for p in plans]``, the per-phase
reference loop, across the three-level pipeline strategies (static
``single`` and dynamic ``double``), odd cell counts and random mixed
static/dynamic structures (``test_fast_path_oracle.py`` adds repeated
blocks, the real plan builders and sweeps that mix full and ragged
final chunks). They pin that every batch size takes one ``run_rows``
call, assert the documented fallbacks (starved allocations, zero-byte
cells, non-positive row entries) really do bypass the fast path, and
that a telemetry session does not.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kernel import StreamKernel
from repro.core.multilevel import ThreeLevelConfig, ThreeLevelPipeline
from repro.errors import PlanError, SimulationError
from repro.simknl import batch
from repro.simknl.batch import (
    PlanBatch,
    evaluate_cells,
    lower_template,
    plan_cell,
    run_batch,
)
from repro.simknl.engine import Engine, Phase, Plan
from repro.simknl.flows import Flow, Resource
from repro.simknl.node import KNLNode, KNLNodeConfig, MemoryMode
from repro.telemetry import runtime as _tm
from repro.units import GB, GiB

RESOURCES = [
    Resource("ddr", 90 * GB),
    Resource("mcdram", 400 * GB),
    Resource("nvm", 10 * GB),
]


def fresh_engine() -> Engine:
    return Engine(RESOURCES)


def assert_identical(a, b) -> None:
    assert a.elapsed == b.elapsed
    assert a.phase_times == b.phase_times
    assert a.traffic == b.traffic


def reference_runs(plans) -> list:
    ref = Engine(RESOURCES)
    return [ref.run(p) for p in plans]


# ---- pipeline strategies across cells -------------------------------------


def pipeline_plans(strategy: str, data_sizes) -> tuple[Engine, list[Plan]]:
    """Structurally identical three-level plans differing only in the
    ragged final chunks, plus an engine over the pipeline's resources."""
    plans = []
    engine = None
    for nbytes in data_sizes:
        node = KNLNode(KNLNodeConfig(mode=MemoryMode.FLAT))
        pipe = ThreeLevelPipeline(
            node, StreamKernel(passes=3), ThreeLevelConfig(data_bytes=nbytes)
        )
        plans.append(pipe.build_plan(strategy))
        if engine is None:
            engine = Engine([*node.resources(), pipe.nvm.resource()])
    return engine, plans


@pytest.mark.parametrize("strategy", ["single", "double"])
@pytest.mark.parametrize("cells", [2, 3, 5])
def test_pipeline_strategies_bit_identical_across_cells(
    strategy, cells, fast_rows, fast_path
):
    # Shrink by whole elements: the final chunk goes ragged but chunk
    # counts — and hence plan structure — stay identical across cells.
    # A full final chunk would change the structure, so no cell keeps
    # all 20 GiB (test_fast_path_oracle.py mixes the two through
    # evaluate_cells).
    sizes = [int(20 * GiB) - 8 * (i + 1) for i in range(cells)]
    engine, plans = pipeline_plans(strategy, sizes)
    results = run_batch(engine, plans)
    assert fast_rows == [cells]
    refs = []
    for nbytes, plan in zip(sizes, plans):
        node = KNLNode(KNLNodeConfig(mode=MemoryMode.FLAT))
        pipe = ThreeLevelPipeline(
            node, StreamKernel(passes=3), ThreeLevelConfig(data_bytes=nbytes)
        )
        refs.append(pipe._engine.run(pipe.build_plan(strategy)))
    for got, ref in zip(results, refs):
        assert_identical(got, ref)
    outs = fast_path(engine, plans)
    assert outs is not None, "run_rows declined"
    for got, ref in zip(outs, refs):
        assert_identical(got, ref)


def test_single_plan_takes_sequential_path(monkeypatch, fast_rows):
    """One plan runs on ``Engine.run`` unless a block repeats: the
    ``single`` strategy's steady state is a one-row ``run_rows`` call
    instead."""
    for strategy, rows in (("direct", []), ("double", []), ("single", [1])):
        engine, plans = pipeline_plans(strategy, [int(20 * GiB)])
        runs = []
        real_run = engine.run
        monkeypatch.setattr(engine, "run", lambda p: runs.append(p) or real_run(p))
        fast_rows.clear()
        results = run_batch(engine, plans)
        assert fast_rows == rows
        assert runs == ([] if rows else plans)
        ref_engine, ref_plans = pipeline_plans(strategy, [int(20 * GiB)])
        assert_identical(results[0], ref_engine.run(ref_plans[0]))


# ---- random structures: batched == per-cell reference ----------------------

flow_strategy = st.tuples(
    st.integers(min_value=1, max_value=64),       # threads
    st.sampled_from([0.2, 1.0, 4.8]),             # per-thread rate (GB/s)
    st.sampled_from(["ddr", "mcdram", "nvm"]),    # extra resource
    st.integers(min_value=1, max_value=20),       # base bytes (GiB)
)

phase_strategy = st.tuples(
    st.booleans(),                                # static_rates
    st.lists(flow_strategy, min_size=1, max_size=3),
)


def build_cell_plan(structure, cell: int) -> Plan:
    """One cell's plan: shared structure, bytes offset per cell."""
    plan = Plan(f"cell{cell}")
    for p, (static, flows) in enumerate(structure):
        fl = [
            Flow(
                f"f{p}.{i}",
                threads,
                rate * GB,
                {"ddr": 1.0, extra: 0.5},
                float(nbytes * GiB + cell * (p + i + 1)),
            )
            for i, (threads, rate, extra, nbytes) in enumerate(flows)
        ]
        plan.add(Phase(f"p{p}", fl, static_rates=static))
    return plan


@settings(max_examples=60, deadline=None)
@given(
    structure=st.lists(phase_strategy, min_size=1, max_size=5),
    cells=st.integers(min_value=2, max_value=5),
)
def test_random_structures_bit_identical(structure, cells, fast_path):
    """``run_batch`` and ``run_rows``, called directly on the same
    lowered batch, equal the per-cell reference runs."""
    plans = [build_cell_plan(structure, c) for c in range(cells)]
    refs = reference_runs(plans)
    results = run_batch(fresh_engine(), plans)
    for got, ref in zip(results, refs):
        assert_identical(got, ref)
    outs = fast_path(fresh_engine(), plans)
    assert outs is not None, "run_rows declined"
    for got, ref in zip(outs, refs):
        assert_identical(got, ref)


@pytest.mark.parametrize("cells", [2, 15])
def test_small_batches_run_in_plain_floats(cells, fast_rows):
    """A small batch of static plans is one ``run_rows`` call."""
    structure = [(True, [(8, 1.0, "ddr", 4)])]
    plans = [build_cell_plan(structure, c) for c in range(cells)]
    results = run_batch(fresh_engine(), plans)
    assert fast_rows == [cells]
    for got, ref in zip(results, reference_runs(plans)):
        assert_identical(got, ref)


@pytest.mark.parametrize("cells", [16, 21])
def test_large_batches_run_in_one_row_pass(cells, fast_rows):
    """A larger batch of dynamic two-flow plans is one ``run_rows``
    call too: no batch size leaves the plain-float path."""
    structure = [(False, [(8, 1.0, "ddr", 4), (4, 4.8, "mcdram", 2)])]
    plans = [build_cell_plan(structure, c) for c in range(cells)]
    results = run_batch(fresh_engine(), plans)
    assert fast_rows == [cells]
    for got, ref in zip(results, reference_runs(plans)):
        assert_identical(got, ref)


def test_mixed_static_dynamic_segments(fast_rows, fast_path):
    def cell_plan(c: int) -> Plan:
        plan = Plan(f"mix{c}")
        for i in range(3):
            plan.add(
                Phase(
                    f"dyn{i}",
                    [
                        Flow("a", 8, 1.0 * GB, {"ddr": 1.0}, float(2 * GiB + c)),
                        Flow("b", 8, 2.0 * GB, {"mcdram": 1.0}, float(GiB + 7 * c)),
                    ],
                )
            )
            plan.add(
                Phase(
                    f"st{i}",
                    [
                        Flow(
                            "c",
                            16,
                            0.5 * GB,
                            {"nvm": 1.0, "ddr": 1.0},
                            float(GiB + c * i + 1),
                        )
                    ],
                    static_rates=True,
                )
            )
        return plan

    plans = [cell_plan(c) for c in range(5)]
    engine = fresh_engine()
    results = run_batch(engine, plans)
    assert fast_rows == [5]
    refs = reference_runs(plans)
    for got, ref in zip(results, refs):
        assert_identical(got, ref)
    outs = fast_path(engine, plans)
    assert outs is not None, "run_rows declined"
    for got, ref in zip(outs, refs):
        assert_identical(got, ref)


def test_structure_mismatch_raises():
    a = build_cell_plan([(True, [(8, 1.0, "ddr", 4)])], 0)
    b = build_cell_plan([(True, [(16, 1.0, "ddr", 4)])], 1)  # threads differ
    with pytest.raises(PlanError, match="structure"):
        run_batch(fresh_engine(), [a, b])


# ---- fallbacks -------------------------------------------------------------


def simple_plans(cells: int = 3, nbytes=None) -> list[Plan]:
    plans = []
    for c in range(cells):
        plan = Plan(f"s{c}")
        for i in range(2):
            plan.add(
                Phase(
                    f"p{i}",
                    [
                        Flow(
                            "f",
                            8,
                            1.0 * GB,
                            {"ddr": 1.0},
                            float(GiB + c + i) if nbytes is None else nbytes[c],
                        )
                    ],
                    static_rates=True,
                )
            )
        plans.append(plan)
    return plans


def test_telemetry_session_keeps_tensor_path(fast_rows):
    """A telemetry session leaves the batch on ``run_rows`` and records
    what the reference loop records."""
    plans = simple_plans()
    with _tm.telemetry_session() as tel_fast:
        res_fast = run_batch(fresh_engine(), plans)
    assert fast_rows == [3]
    with _tm.telemetry_session() as tel_ref:
        res_ref = reference_runs(plans)
    for a, b in zip(res_fast, res_ref):
        assert_identical(a, b)
    assert tel_fast.snapshot() == tel_ref.snapshot()
    assert [(e.name, e.time, e.attrs) for e in tel_fast.events] == [
        (e.name, e.time, e.attrs) for e in tel_ref.events
    ]


def test_starved_allocation_raises_like_reference(fast_path):
    plans = simple_plans()
    engine = fresh_engine()
    engine._allocate = lambda live: [0.0] * len(live)
    assert fast_path(engine, plans) is None
    # Only the reference loop raises, naming the phase.
    with pytest.raises(SimulationError, match="phase 'p0'.*starved"):
        run_batch(engine, plans)


def test_zero_byte_cell_changes_structure():
    """Liveness (``bytes_total > 0``) is part of a plan's structure, so
    a zero-byte cell cannot ride a batch whose template expects the
    flow live — callers must pre-group by :meth:`Plan.structure`
    (``evaluate_cells`` does)."""
    plans = simple_plans(3, nbytes=[float(GiB), 0.0, float(2 * GiB)])
    with pytest.raises(PlanError, match="structure"):
        run_batch(fresh_engine(), plans)
    # Pre-grouped by structure, both groups evaluate bit-identically.
    groups: dict[tuple, list[Plan]] = {}
    for p in plans:
        groups.setdefault(p.structure(), []).append(p)
    assert len(groups) == 2
    for group in groups.values():
        engine = fresh_engine()
        for got, ref in zip(run_batch(engine, group), reference_runs(group)):
            assert_identical(got, ref)


@pytest.mark.parametrize("column", [0, -1])  # a byte demand, a repeat count
@pytest.mark.parametrize("value", [0.0, -1.0, float("nan")])
def test_non_positive_entry_declines_on_both_paths(column, value):
    """A zero, negative or NaN row entry would change liveness or
    repetition: ``run_rows`` declines, so ``run_batch`` would hand the
    plans to the reference loop."""
    plans = simple_plans()
    rows = [list(p.row) for p in plans]
    rows[1][column] = value
    lowered = lower_template(plans[0])
    assert batch.run_rows(fresh_engine(), lowered, rows) is None


# ---- sweep-level entry point ----------------------------------------------


def _spec_cell(threads: int, nbytes: float) -> PlanBatch:
    plan = Plan("cell")
    plan.add(
        Phase(
            "p",
            [Flow("f", threads, 1.0 * GB, {"ddr": 1.0}, nbytes)],
            static_rates=True,
        )
    )
    return PlanBatch(
        resources=tuple(RESOURCES),
        plans=(plan,),
        finish=lambda runs: runs[0].elapsed,
    )


def test_evaluate_cells_groups_by_structure():
    cells = [
        (8, float(GiB)),
        (8, float(2 * GiB)),
        (16, float(GiB)),      # different structure: its own group
        (8, float(3 * GiB)),
    ]
    with mock.patch.object(batch, "run_batch", wraps=batch.run_batch) as spy:
        results = evaluate_cells(plan_cell(_spec_cell).plan_batch, cells)
    assert [len(c.args[1]) for c in spy.call_args_list] == [3, 1]
    for (threads, nbytes), got in zip(cells, results):
        ref = reference_runs(
            [
                Plan(
                    "ref",
                    phases=[
                        Phase(
                            "p",
                            [Flow("f", threads, 1.0 * GB, {"ddr": 1.0}, nbytes)],
                            static_rates=True,
                        )
                    ],
                )
            ]
        )[0]
        assert got == ref.elapsed

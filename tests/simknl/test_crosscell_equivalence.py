"""Tests pinning cross-cell batching to per-cell runs.

``batch.run_batch`` evaluates N structurally identical plans on one
lowered shape: below ``TENSOR_MIN_PLANS`` plans row by row in plain
floats (``run_rows``), from there on as one bytes tensor with
vectorized NumPy ops (``run_lowered``). These tests hold
``run_batch`` and both evaluators, called directly on the same lowered
batch, bit-identical — ``elapsed``, ``phase_times``, ``traffic`` — to
``[engine.run(p) for p in plans]``, the per-phase reference loop,
across the three-level pipeline strategies (static ``single`` and
dynamic ``double``), odd cell counts and random mixed static/dynamic
structures (``test_fast_path_oracle.py`` adds repeated blocks and the
real plan builders). They pin which evaluator a batch size takes,
assert the documented fallbacks (starved allocations, zero-byte cells,
non-positive row entries) really do bypass the fast path, and that a
telemetry session does not.
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
    lower_plans,
    plan_cell,
    run_batch,
    run_lowered,
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
    strategy, cells, fast_rows, fast_paths
):
    # Shrink by whole elements: the final chunk goes ragged but chunk
    # counts — and hence plan structure — stay identical across cells.
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
    for path, outs in fast_paths(engine, plans).items():
        assert outs is not None, f"{path} declined"
        for got, ref in zip(outs, refs):
            assert_identical(got, ref)


def test_single_plan_takes_sequential_path(monkeypatch, fast_rows):
    """One plan runs on ``Engine.run`` unless a block repeats: the
    ``single`` strategy's steady state is a one-row tensor instead."""
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
def test_random_structures_bit_identical(structure, cells, fast_paths):
    """``run_batch`` and each fast evaluator, called directly on the
    same lowered batch, equal the per-cell reference runs."""
    plans = [build_cell_plan(structure, c) for c in range(cells)]
    refs = reference_runs(plans)
    results = run_batch(fresh_engine(), plans)
    for got, ref in zip(results, refs):
        assert_identical(got, ref)
    for path, outs in fast_paths(fresh_engine(), plans).items():
        assert outs is not None, f"{path} declined"
        for got, ref in zip(outs, refs):
            assert_identical(got, ref)


def refuse(*args):
    raise AssertionError("the other fast evaluator was entered")


@pytest.mark.parametrize("cells", [2, batch.TENSOR_MIN_PLANS - 1])
def test_small_batches_run_in_plain_floats(cells, monkeypatch):
    """Below ``TENSOR_MIN_PLANS`` plans, ``run_batch`` evaluates on
    ``run_rows`` and never enters the tensor."""
    structure = [(True, [(8, 1.0, "ddr", 4)])]
    plans = [build_cell_plan(structure, c) for c in range(cells)]
    rows = []
    real = batch.run_rows

    def spy(engine, lowered, plan_rows):
        rows.append(len(plan_rows))
        return real(engine, lowered, plan_rows)

    monkeypatch.setattr(batch, "run_rows", spy)
    monkeypatch.setattr(batch, "run_lowered", refuse)
    results = run_batch(fresh_engine(), plans)
    assert rows == [cells]
    for got, ref in zip(results, reference_runs(plans)):
        assert_identical(got, ref)


@pytest.mark.parametrize("extra", [0, 5])
def test_large_batches_run_on_the_tensor(extra, monkeypatch):
    """From ``TENSOR_MIN_PLANS`` plans on, ``run_batch`` evaluates one
    tensor and never enters ``run_rows``."""
    cells = batch.TENSOR_MIN_PLANS + extra
    structure = [(False, [(8, 1.0, "ddr", 4), (4, 4.8, "mcdram", 2)])]
    plans = [build_cell_plan(structure, c) for c in range(cells)]
    rows = []
    real = batch.run_lowered

    def spy(engine, lowered, tensor):
        rows.append(tensor.shape[0])
        return real(engine, lowered, tensor)

    monkeypatch.setattr(batch, "run_lowered", spy)
    monkeypatch.setattr(batch, "run_rows", refuse)
    results = run_batch(fresh_engine(), plans)
    assert rows == [cells]
    for got, ref in zip(results, reference_runs(plans)):
        assert_identical(got, ref)


def test_mixed_static_dynamic_segments(fast_rows, fast_paths):
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
    for path, outs in fast_paths(engine, plans).items():
        assert outs is not None, f"{path} declined"
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


def test_starved_allocation_raises_like_reference(fast_paths):
    plans = simple_plans()
    engine = fresh_engine()
    engine._allocate = lambda live: [0.0] * len(live)
    declined = {"run_rows": None, "run_lowered": None}
    assert fast_paths(engine, plans) == declined
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
    repetition: both fast evaluators decline, so ``run_batch`` would
    hand the plans to the reference loop."""
    plans = simple_plans()
    lowered, tensor = lower_plans(plans)
    rows = [list(p.row) for p in plans]
    rows[1][column] = value
    tensor[1, column] = value
    engine = fresh_engine()
    assert batch.run_rows(engine, lowered, rows) is None
    assert run_lowered(engine, lowered, tensor) is None


def test_run_lowered_rejects_shape_mismatch():
    plans = simple_plans()
    lowered, tensor = lower_plans(plans)
    with pytest.raises(PlanError, match="shape"):
        run_lowered(fresh_engine(), lowered, tensor[:, :1])


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

"""Tests pinning cross-cell tensor batching to per-cell runs.

``Engine.run_batch`` stacks N structurally identical plans into one
bytes tensor and evaluates the whole sweep with vectorized NumPy ops.
These tests hold it bit-identical — ``elapsed``, ``phase_times``,
``traffic`` — to ``[engine.run(p) for p in plans]`` on a reference
engine, across the three-level pipeline strategies (static ``single``
and dynamic ``double``), odd cell counts and random mixed
static/dynamic structures (``test_fast_path_oracle.py`` adds repeated
blocks and the real plan builders), and assert the documented fallbacks
(telemetry, starved allocations, zero-byte cells) really do bypass the
tensor path.
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
    PlanBatchSpec,
    evaluate_plan_batch,
    lower_plans,
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


def fresh_engine(**kw) -> Engine:
    return Engine(RESOURCES, record_events=False, **kw)


def assert_identical(a, b) -> None:
    assert a.elapsed == b.elapsed
    assert a.phase_times == b.phase_times
    assert a.traffic == b.traffic


def reference_runs(plans) -> list:
    ref = Engine(RESOURCES, record_events=False, batch_phases=False)
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
            engine = Engine(
                [*node.resources(), pipe.nvm.resource()], record_events=False
            )
    return engine, plans


@pytest.mark.parametrize("strategy", ["single", "double"])
@pytest.mark.parametrize("cells", [2, 3, 5])
def test_pipeline_strategies_bit_identical_across_cells(
    strategy, cells, tensor_rows
):
    # Shrink by whole elements: the final chunk goes ragged but chunk
    # counts — and hence plan structure — stay identical across cells.
    sizes = [int(20 * GiB) - 8 * (i + 1) for i in range(cells)]
    engine, plans = pipeline_plans(strategy, sizes)
    results = run_batch(engine, plans)
    assert tensor_rows == [cells]
    refs = []
    for nbytes, plan in zip(sizes, plans):
        node = KNLNode(KNLNodeConfig(mode=MemoryMode.FLAT))
        pipe = ThreeLevelPipeline(
            node, StreamKernel(passes=3), ThreeLevelConfig(data_bytes=nbytes)
        )
        pipe._engine.batch_phases = False
        refs.append(pipe.run(strategy))
    for got, ref in zip(results, refs):
        assert_identical(got, ref)


def test_single_plan_takes_sequential_path(monkeypatch):
    engine, plans = pipeline_plans("single", [int(20 * GiB)])
    runs = []
    real_run = engine.run
    monkeypatch.setattr(engine, "run", lambda p: runs.append(p) or real_run(p))
    results = run_batch(engine, plans)
    assert runs == plans  # one plan: Engine.run, not a cross-cell batch
    ref_engine, ref_plans = pipeline_plans("single", [int(20 * GiB)])
    ref_engine.batch_phases = False
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
def test_random_structures_bit_identical(structure, cells):
    plans = [build_cell_plan(structure, c) for c in range(cells)]
    rows: list[int] = []
    real = batch.run_lowered

    def counting(engine, lowered, tensor):
        results = real(engine, lowered, tensor)
        if results is not None:
            rows.append(len(results))
        return results

    with mock.patch.object(batch, "run_lowered", counting):
        results = run_batch(fresh_engine(), plans)
    assert rows == [cells]
    for got, ref in zip(results, reference_runs(plans)):
        assert_identical(got, ref)


def test_mixed_static_dynamic_segments(tensor_rows):
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
    assert tensor_rows == [5]
    for got, ref in zip(results, reference_runs(plans)):
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


def test_telemetry_session_falls_back(tensor_rows):
    plans = simple_plans()
    engine = fresh_engine()
    with _tm.telemetry_session():
        res_tel = run_batch(engine, plans)
    assert tensor_rows == []
    res_fast = run_batch(engine, plans)
    assert tensor_rows == [3]
    for a, b in zip(res_tel, res_fast):
        assert_identical(a, b)


def test_starved_allocation_raises_like_reference():
    plans = simple_plans()
    engine = fresh_engine()
    engine._allocate = lambda live: [0.0] * len(live)
    # Only the reference loop raises, naming the phase.
    with pytest.raises(SimulationError, match="phase 'p0'.*starved"):
        run_batch(engine, plans)


def test_zero_byte_cell_changes_structure():
    """Liveness (``bytes_total > 0``) is part of a plan's structure, so
    a zero-byte cell cannot ride a batch whose template expects the
    flow live — callers must pre-group by :meth:`Plan.structure`
    (``evaluate_plan_batch`` does)."""
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


def test_run_lowered_rejects_ineligible_engine():
    plans = simple_plans()
    lowered, tensor = lower_plans(plans)
    engine = Engine(RESOURCES, record_events=True)
    with pytest.raises(PlanError, match="eligible"):
        run_lowered(engine, lowered, tensor)


def test_run_lowered_rejects_shape_mismatch():
    plans = simple_plans()
    lowered, tensor = lower_plans(plans)
    with pytest.raises(PlanError, match="shape"):
        run_lowered(fresh_engine(), lowered, tensor[:, :1])


# ---- sweep-level entry point ----------------------------------------------


def _spec_cell(threads: int, nbytes: float) -> PlanBatch | None:
    if threads == 0:
        return None  # unbatchable cell: leftover
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


def test_evaluate_plan_batch_groups_and_leftovers():
    spec = PlanBatchSpec(build=_spec_cell)
    cells = [
        (8, float(GiB)),
        (0, float(GiB)),       # leftover (build declines)
        (8, float(2 * GiB)),
        (16, float(GiB)),      # different structure: its own group
        (8, float(3 * GiB)),
    ]
    results, leftovers = evaluate_plan_batch(spec, cells)
    assert leftovers == [1]
    assert results[1] is None
    for i, (threads, nbytes) in enumerate(cells):
        if i == 1:
            continue
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
        assert results[i] == ref.elapsed

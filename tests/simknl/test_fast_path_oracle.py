"""The one oracle for the engine's fast path.

Every plan evaluation through :func:`batch.run_batch` — one plan, as
``KNLNode.run`` does, or a cross-cell group — must be bit for bit equal
to ``Engine.run`` on the ``reference_engine`` fixture: the per-phase
reference loop with a fresh water-filling solve per phase. So must
both fast evaluators, called directly on every group (the
``fast_paths`` fixture): ``run_batch`` sends batches this small to the
plain-float ``batch.run_rows`` only, and the NumPy tensor
(``batch.run_lowered``) would otherwise go unchecked. ``elapsed``,
``phase_times`` and per-resource traffic are compared with ``==``.

Plans come from two sources: random static/dynamic phase lists whose
phases repeat a random number of times per cell, and the real plan
builders (the triple-buffered and unbuffered chunk pipelines, the
three-level NVM pipeline, MLM-sort and the GNU sort) at random chunk
counts, ragged final chunks included. The chunk-pipeline and sort
builders' plans are lazy (a shared template plus a bytes row), so the
reference loop runs their phases built from the template while the
fast path reads the row; a mixed sweep of MLM cells also goes through
``evaluate_cells``. Dynamic phases with exactly one live flow take
the tensor's direct one-round path (``batch._single_flow``) and get their own
cases: one row and many, a resource-free overhead flow, idle flows
beside the live one, and a starved flow that must raise the reference
error. Steps that overflow to inf, in static and dynamic phases, must
match the loop with warnings raised as errors. This is the
check-against-a-reference pattern: the fast path is trusted only as
far as it agrees with the loop.
"""

from __future__ import annotations

import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.costs import SortCostModel
from repro.algorithms.mlm_sort import MLMSortConfig, mlm_sort_plan
from repro.algorithms.parallel_sort import gnu_sort_plan
from repro.core.buffering import BufferedPipeline
from repro.core.chunking import Chunker
from repro.core.kernel import StreamKernel
from repro.core.modes import UsageMode
from repro.core.multilevel import ThreeLevelConfig, ThreeLevelPipeline
from repro.errors import SimulationError
from repro.simknl import batch
from repro.simknl.engine import Engine, Phase, Plan
from repro.simknl.flows import Flow, Resource
from repro.simknl.node import KNLNode, KNLNodeConfig, MemoryMode
from repro.threads.pool import PoolSet
from repro.units import GB, GiB, MiB

RESOURCES = [
    Resource("ddr", 90 * GB),
    Resource("mcdram", 400 * GB),
    Resource("nvm", 10 * GB),
]


def assert_identical(got, want) -> None:
    assert got.elapsed == want.elapsed
    assert got.phase_times == want.phase_times
    assert got.traffic == want.traffic


def check_against_reference(
    reference_engine, fast_paths, resources, plans: list[Plan]
) -> None:
    """Single-plan runs and structure-grouped cross-cell batches match
    the reference loop: through ``run_batch``, and on each fast
    evaluator called directly on the same lowered batch."""
    wants = [reference_engine(resources).run(p) for p in plans]
    engine = Engine(resources)
    for plan, want in zip(plans, wants):
        assert_identical(batch.run_batch(engine, [plan])[0], want)
    groups: dict[tuple, list[int]] = {}
    for i, plan in enumerate(plans):
        groups.setdefault(plan.structure(), []).append(i)
    batch_engine = Engine(resources)
    for members in groups.values():
        group = [plans[i] for i in members]
        outs = batch.run_batch(batch_engine, group)
        for i, got in zip(members, outs):
            assert_identical(got, wants[i])
        for path, outs in fast_paths(batch_engine, group).items():
            assert outs is not None, f"{path} declined"
            for i, got in zip(members, outs):
                assert_identical(got, wants[i])


# ---- random plans with repeated phases -------------------------------------

flow_strategy = st.tuples(
    st.integers(min_value=1, max_value=64),       # threads
    st.sampled_from([0.2, 1.0, 4.8]),             # per-thread rate (GB/s)
    st.sampled_from(["ddr", "mcdram", "nvm"]),    # extra resource
    st.integers(min_value=0, max_value=20),       # bytes (GiB; 0 = idle)
)

phase_strategy = st.tuples(
    st.booleans(),                                # static_rates
    st.lists(flow_strategy, min_size=1, max_size=3),
)


def random_plan(phases, repeats: list[int], cell: int) -> Plan:
    """One cell's plan: phase ``p`` is added ``repeats[p]`` times in a
    row (the same object, so identical demands — a steady state), with
    byte demands offset per cell."""
    plan = Plan(f"cell{cell}")
    for p, ((static, flows), repeat) in enumerate(zip(phases, repeats)):
        phase = Phase(
            f"p{p}",
            [
                Flow(
                    f"f{p}.{i}",
                    threads,
                    rate * GB,
                    {"ddr": 1.0, extra: 0.5},
                    float(nbytes * GiB + cell * (p + i + 1)),
                )
                for i, (threads, rate, extra, nbytes) in enumerate(flows)
            ],
            static_rates=static,
        )
        for _ in range(repeat):
            plan.add(phase)
    return plan


@settings(max_examples=120, deadline=None)
@given(
    phases=st.lists(phase_strategy, min_size=1, max_size=4),
    data=st.data(),
)
def test_random_plans_match_reference(
    phases, data, reference_engine, fast_paths
):
    cells = data.draw(st.integers(min_value=1, max_value=4), label="cells")
    repeat = st.integers(min_value=1, max_value=6)
    plans = [
        random_plan(
            phases,
            data.draw(
                st.lists(repeat, min_size=len(phases), max_size=len(phases)),
                label=f"repeats{c}",
            ),
            c,
        )
        for c in range(cells)
    ]
    check_against_reference(reference_engine, fast_paths, RESOURCES, plans)


# ---- the real plan builders at random chunk counts -------------------------

CHUNK = 256 * MiB


def pipeline_plan(kind: str, chunks: int, ragged: int):
    """A :class:`BufferedPipeline` plan of ``chunks`` chunks; a nonzero
    ``ragged`` shrinks the final chunk by that many elements."""
    total = chunks * CHUNK - 8 * ragged
    if kind == "implicit":
        node = KNLNode(KNLNodeConfig(mode=MemoryMode.CACHE))
        mode = UsageMode.IMPLICIT
        pools = PoolSet.compute_only(node, threads=256)
    else:
        node = KNLNode(KNLNodeConfig(mode=MemoryMode.FLAT))
        mode = UsageMode.FLAT
        pools = PoolSet.split(node, compute=240, copy_in=8)
    pipe = BufferedPipeline(
        node,
        mode,
        pools,
        Chunker(total, CHUNK),
        StreamKernel(passes=3),
        buffered=kind != "unbuffered",
    )
    return list(node.resources()), pipe.build_plan()


def three_level_plan(strategy: str, chunks: int, ragged: int):
    node = KNLNode(KNLNodeConfig(mode=MemoryMode.FLAT))
    pipe = ThreeLevelPipeline(
        node,
        StreamKernel(passes=2),
        ThreeLevelConfig(
            data_bytes=chunks * GiB - 8 * ragged,
            outer_chunk_bytes=4 * GiB,
            inner_chunk_bytes=GiB,
        ),
    )
    return [*node.resources(), pipe.nvm.resource()], pipe.build_plan(strategy)


def mlm_plan(kind: str, chunks: int, ragged: int):
    mode = UsageMode.IMPLICIT if kind == "implicit" else UsageMode.FLAT
    memory = MemoryMode.CACHE if kind == "implicit" else MemoryMode.FLAT
    node = KNLNode(KNLNodeConfig(mode=memory))
    mega = 1 << 27
    config = MLMSortConfig(
        n=chunks * mega - ragged,
        megachunk_elements=mega,
        mode=mode,
        buffered_megachunks=kind == "buffered",
    )
    cost = SortCostModel(chunk_overhead_s=0.01 if ragged % 2 else 0.0)
    return list(node.resources()), mlm_sort_plan(node, config, cost)


def gnu_plan(mode: UsageMode, chunks: int, ragged: int):
    """A GNU sort of as many elements as ``mlm_plan`` sorts: in cache
    mode, small sorts stay cached and large ones gain a thrash band."""
    memory = MemoryMode.CACHE if mode is UsageMode.CACHE else MemoryMode.FLAT
    node = KNLNode(KNLNodeConfig(mode=memory))
    order = "reverse" if ragged % 2 else "random"
    plan = gnu_sort_plan(node, chunks * (1 << 27) - ragged, order, mode)
    return list(node.resources()), plan


BUILDERS = {
    "pipeline-buffered": lambda c, r: pipeline_plan("buffered", c, r),
    "pipeline-unbuffered": lambda c, r: pipeline_plan("unbuffered", c, r),
    "pipeline-implicit": lambda c, r: pipeline_plan("implicit", c, r),
    "three-level-single": lambda c, r: three_level_plan("single", c, r),
    "three-level-double": lambda c, r: three_level_plan("double", c, r),
    "mlm-flat": lambda c, r: mlm_plan("flat", c, r),
    "mlm-buffered": lambda c, r: mlm_plan("buffered", c, r),
    "mlm-implicit": lambda c, r: mlm_plan("implicit", c, r),
    "gnu-flat": lambda c, r: gnu_plan(UsageMode.DDR, c, r),
    "gnu-cache": lambda c, r: gnu_plan(UsageMode.CACHE, c, r),
}


@settings(max_examples=60, deadline=None)
@given(
    builder=st.sampled_from(sorted(BUILDERS)),
    cells=st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=12),   # chunks
            st.sampled_from([0, 0, 1, 3]),            # ragged elements
        ),
        min_size=1,
        max_size=4,
    ),
)
def test_builder_plans_match_reference(
    builder, cells, reference_engine, fast_paths
):
    built = [BUILDERS[builder](chunks, ragged) for chunks, ragged in cells]
    resources = built[0][0]
    check_against_reference(
        reference_engine, fast_paths, resources, [plan for _, plan in built]
    )


def test_mixed_mlm_sweep_matches_reference(monkeypatch, reference_engine):
    """MLM cells with full and ragged last megachunks, buffered and
    unbuffered, with and without per-megachunk overhead, evaluated as
    one sweep: ``evaluate_cells`` groups them by template and runs one
    ``run_batch`` per group. Every cell's run must equal the reference
    loop over its own plan, bit for bit."""
    node = KNLNode(KNLNodeConfig(mode=MemoryMode.FLAT))
    resources = list(node.resources())
    mega = 1 << 27

    def build(chunks, ragged, buffered, overhead):
        config = MLMSortConfig(
            n=chunks * mega - ragged,
            megachunk_elements=mega,
            mode=UsageMode.FLAT,
            buffered_megachunks=buffered,
        )
        cost = SortCostModel(chunk_overhead_s=overhead)
        return batch.PlanBatch(
            resources=resources,
            plans=(mlm_sort_plan(node, config, cost),),
            finish=lambda runs: runs[0],
        )

    cells = [
        (chunks, ragged, buffered, overhead)
        for chunks in (2, 3, 5, 6)
        for ragged in (0, 3)
        for buffered in (False, True)
        for overhead in (0.0, 0.01)
    ]
    sizes = []
    run_batch = batch.run_batch

    def spy(engine, plans):
        sizes.append(len(plans))
        return run_batch(engine, plans)

    monkeypatch.setattr(batch, "run_batch", spy)
    got = batch.evaluate_cells(batch.plan_cell(build).plan_batch, cells)
    assert sum(sizes) == len(cells) and max(sizes) > 1
    reference = reference_engine(resources)
    for cell, result in zip(cells, got):
        assert_identical(result, reference.run(build(*cell).plans[0]))


# ---- dynamic phases with one live flow --------------------------------------


def single_flow_plans(flows, cells: int, repeat: int = 3) -> list[Plan]:
    """``cells`` plans of one dynamic phase repeated ``repeat`` times.

    ``flows`` are ``(threads, rate, resources, bytes)`` tuples; a zero
    byte demand leaves the flow idle, so a phase holding one flow with
    bytes and any number of idle ones has exactly one live flow. Byte
    demands are offset per cell.
    """
    plans = []
    for c in range(cells):
        phase = Phase(
            "p",
            [
                Flow(f"f{i}", threads, rate, res, nbytes + c * 7.0 if nbytes else 0.0)
                for i, (threads, rate, res, nbytes) in enumerate(flows)
            ],
        )
        plans.append(Plan(f"cell{c}", [phase] * repeat))
    return plans


@pytest.fixture
def single_flow_calls(monkeypatch):
    """Count calls of the one-live-flow round, so each case below is
    known to take it."""
    calls = []
    original = batch._single_flow

    def spy(*args):
        calls.append(args[1].shape[0])
        return original(*args)

    monkeypatch.setattr(batch, "_single_flow", spy)
    return calls


@pytest.mark.parametrize("cells", [1, 7])
def test_single_live_flow_matches_reference(
    cells, single_flow_calls, reference_engine, fast_paths
):
    flows = [
        (8, 4.8 * GB, {"ddr": 1.0, "mcdram": 1.0}, 3 * GiB),
        (4, 6.78 * GB, {"mcdram": 1.0}, 0.0),  # idle: not live
    ]
    check_against_reference(
        reference_engine, fast_paths, RESOURCES, single_flow_plans(flows, cells)
    )
    assert single_flow_calls and max(single_flow_calls) == cells


@pytest.mark.parametrize("cells", [1, 5])
def test_resource_free_overhead_flow_matches_reference(
    cells, single_flow_calls, reference_engine, fast_paths
):
    flows = [(1, 1.0, {}, 0.25)]  # a fixed overhead: seconds at rate 1
    check_against_reference(
        reference_engine, fast_paths, RESOURCES, single_flow_plans(flows, cells)
    )
    assert single_flow_calls


@settings(max_examples=60, deadline=None)
@given(
    threads=st.integers(min_value=1, max_value=256),
    rate=st.sampled_from([0.2, 1.0, 4.8, 6.78]),
    res=st.sampled_from(
        [{}, {"ddr": 1.0}, {"mcdram": 2.0}, {"ddr": 1.0, "nvm": 0.5}]
    ),
    nbytes=st.floats(min_value=1.0, max_value=64 * GiB),
    cells=st.integers(min_value=1, max_value=6),
    idle=st.integers(min_value=0, max_value=2),
)
def test_random_single_live_flows_match_reference(
    threads, rate, res, nbytes, cells, idle, reference_engine, fast_paths
):
    flows = [(threads, rate * GB, res, nbytes)]
    flows += [(2, 1.0 * GB, {"ddr": 1.0}, 0.0)] * idle
    check_against_reference(
        reference_engine, fast_paths, RESOURCES, single_flow_plans(flows, cells)
    )


@pytest.mark.parametrize("cells", [1, 3])
def test_starved_single_flow_raises_reference_error(
    cells, reference_engine, fast_paths
):
    """A step too long to be a finite float is starvation to the
    reference loop; both fast evaluators must decline and let it
    raise."""
    plans = single_flow_plans([(1, 1e-300, {"ddr": 1.0}, 1e10)], cells)
    with pytest.raises(SimulationError) as want:
        reference_engine(RESOURCES).run(plans[0])
    engine = Engine(RESOURCES)
    assert fast_paths(engine, plans) == {
        "run_rows": None,
        "run_lowered": None,
    }
    with pytest.raises(SimulationError) as got:
        batch.run_batch(engine, plans[:1])
    assert str(got.value) == str(want.value)
    with pytest.raises(SimulationError, match="starvation"):
        batch.run_batch(engine, plans)


@pytest.mark.parametrize("live", [1, 2])
@pytest.mark.parametrize("static", [False, True])
def test_overflowing_step_matches_reference_without_warning(
    static, live, reference_engine, fast_paths
):
    """A 1-thread flow at 1e-300 B/s over 1e10 B needs a step that
    overflows to inf. The reference loop raises the starvation error
    for a dynamic phase and returns ``elapsed=inf`` for a static one;
    the fast path must do the same, and no NumPy overflow warning may
    escape on the way."""
    flows = [
        Flow(f"f{i}", 1, 1e-300, {"ddr": 1.0}, 1e10 + i) for i in range(live)
    ]
    phase = Phase("p", flows, static_rates=static)
    plans = [Plan(f"cell{c}", [phase] * 2) for c in range(3)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reference = reference_engine(RESOURCES)
        if static:
            check_against_reference(
                reference_engine, fast_paths, RESOURCES, plans
            )
            assert reference.run(plans[0]).elapsed == float("inf")
            return
        with pytest.raises(SimulationError) as want:
            reference.run(plans[0])
        engine = Engine(RESOURCES)
        assert fast_paths(engine, plans) == {
            "run_rows": None,
            "run_lowered": None,
        }
        with pytest.raises(SimulationError) as got:
            batch.run_batch(engine, plans[:1])
        assert str(got.value) == str(want.value)
        with pytest.raises(SimulationError, match="starvation"):
            batch.run_batch(engine, plans)

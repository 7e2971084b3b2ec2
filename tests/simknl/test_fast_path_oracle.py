"""The one oracle for the engine's fast path.

Every plan evaluation that does not go through the per-phase reference
loop — a single-plan :meth:`Engine.run` and a cross-cell
:meth:`Engine.run_batch` — must be bit for bit equal to
``Engine(batch_phases=False, memoize_rates=False).run``: the reference
loop with a fresh water-filling solve per phase. ``elapsed``,
``phase_times`` and per-resource traffic are compared with ``==``.

Plans come from two sources: random static/dynamic phase lists whose
phases repeat a random number of times per cell, and the real plan
builders (the triple-buffered and unbuffered chunk pipelines, the
three-level NVM pipeline and MLM-sort) at random chunk counts, ragged
final chunks included. Dynamic phases with exactly one live flow take
a direct one-round path (``batch._single_flow``) and get their own
cases: one row and many, a resource-free overhead flow, idle flows
beside the live one, and a starved flow that must raise the reference
error. This is the check-against-a-reference pattern:
the fast path is trusted only as far as it agrees with the loop.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.costs import SortCostModel
from repro.algorithms.mlm_sort import MLMSortConfig, mlm_sort_plan
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


def reference(resources, plan: Plan):
    engine = Engine(
        resources,
        record_events=False,
        batch_phases=False,
        memoize_rates=False,
    )
    return engine.run(plan)


def assert_identical(got, want) -> None:
    assert got.elapsed == want.elapsed
    assert got.phase_times == want.phase_times
    assert got.traffic == want.traffic


def check_against_reference(resources, plans: list[Plan]) -> None:
    """Single-plan runs and structure-grouped cross-cell batches both
    match the reference loop."""
    wants = [reference(resources, p) for p in plans]
    engine = Engine(resources, record_events=False)
    for plan, want in zip(plans, wants):
        assert_identical(engine.run(plan), want)
    groups: dict[tuple, list[int]] = {}
    for i, plan in enumerate(plans):
        groups.setdefault(plan.structure(), []).append(i)
    batch_engine = Engine(resources, record_events=False)
    for members in groups.values():
        outs = batch_engine.run_batch([plans[i] for i in members])
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
def test_random_plans_match_reference(phases, data):
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
    check_against_reference(RESOURCES, plans)


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


BUILDERS = {
    "pipeline-buffered": lambda c, r: pipeline_plan("buffered", c, r),
    "pipeline-unbuffered": lambda c, r: pipeline_plan("unbuffered", c, r),
    "pipeline-implicit": lambda c, r: pipeline_plan("implicit", c, r),
    "three-level-single": lambda c, r: three_level_plan("single", c, r),
    "three-level-double": lambda c, r: three_level_plan("double", c, r),
    "mlm-flat": lambda c, r: mlm_plan("flat", c, r),
    "mlm-buffered": lambda c, r: mlm_plan("buffered", c, r),
    "mlm-implicit": lambda c, r: mlm_plan("implicit", c, r),
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
def test_builder_plans_match_reference(builder, cells):
    built = [BUILDERS[builder](chunks, ragged) for chunks, ragged in cells]
    resources = built[0][0]
    check_against_reference(resources, [plan for _, plan in built])


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
def test_single_live_flow_matches_reference(cells, single_flow_calls):
    flows = [
        (8, 4.8 * GB, {"ddr": 1.0, "mcdram": 1.0}, 3 * GiB),
        (4, 6.78 * GB, {"mcdram": 1.0}, 0.0),  # idle: not live
    ]
    check_against_reference(RESOURCES, single_flow_plans(flows, cells))
    assert single_flow_calls and max(single_flow_calls) == cells


@pytest.mark.parametrize("cells", [1, 5])
def test_resource_free_overhead_flow_matches_reference(
    cells, single_flow_calls
):
    flows = [(1, 1.0, {}, 0.25)]  # a fixed overhead: seconds at rate 1
    check_against_reference(RESOURCES, single_flow_plans(flows, cells))
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
    threads, rate, res, nbytes, cells, idle
):
    flows = [(threads, rate * GB, res, nbytes)]
    flows += [(2, 1.0 * GB, {"ddr": 1.0}, 0.0)] * idle
    check_against_reference(RESOURCES, single_flow_plans(flows, cells))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("cells", [1, 3])
def test_starved_single_flow_raises_reference_error(cells):
    """A step too long to be a finite float is starvation to the
    reference loop; the tensor path must decline and let it raise."""
    plans = single_flow_plans([(1, 1e-300, {"ddr": 1.0}, 1e10)], cells)
    with pytest.raises(SimulationError) as want:
        reference(RESOURCES, plans[0])
    engine = Engine(RESOURCES, record_events=False)
    with pytest.raises(SimulationError) as got:
        engine.run(plans[0])
    assert str(got.value) == str(want.value)
    with pytest.raises(SimulationError, match="starvation"):
        engine.run_batch(plans)

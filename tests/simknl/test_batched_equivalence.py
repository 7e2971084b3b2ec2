"""Tests pinning single-plan fast-path evaluation to the per-phase
reference loop.

Plan builders emit the pipeline steady state as one repeated block;
:func:`~repro.simknl.batch.run_batch` evaluates one plan with a
repeated block as a one-row :func:`~repro.simknl.batch.run_rows`.
``Engine.run`` is the per-phase reference loop, and these tests hold
both fast evaluators bit-identical to it — ``elapsed``,
``phase_times``, and ``traffic`` — across strategies, odd-sized final
chunks and random plans with repeated blocks, the random ones also on
a one-row :func:`~repro.simknl.batch.run_lowered`
(``test_fast_path_oracle.py`` adds random cells and the real plan
builders), assert the documented fallback (starved allocations) really
does run the reference loop, and that a telemetry session does not.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kernel import StreamKernel
from repro.core.multilevel import ThreeLevelConfig, ThreeLevelPipeline
from repro.errors import SimulationError
from repro.simknl import batch
from repro.simknl import engine as engine_mod
from repro.simknl.engine import Engine, Phase, Plan
from repro.simknl.flows import Flow, Resource
from repro.simknl.node import KNLNode, KNLNodeConfig, MemoryMode
from repro.telemetry import runtime as _tm
from repro.units import GB, GiB, MiB

RESOURCES = [
    Resource("ddr", 90 * GB),
    Resource("mcdram", 400 * GB),
    Resource("nvm", 10 * GB),
]


def run_both(plan: Plan, fast_paths) -> tuple:
    """``plan``'s ``run_batch`` result and its reference-loop result,
    after checking that both fast evaluators, called directly, give the
    reference result too."""
    fast = batch.run_batch(Engine(RESOURCES), [plan])[0]
    ref = Engine(RESOURCES).run(plan)
    for path, outs in fast_paths(Engine(RESOURCES), [plan]).items():
        assert outs is not None, f"{path} declined"
        assert_identical(outs[0], ref)
    return fast, ref


def assert_identical(a, b) -> None:
    assert a.elapsed == b.elapsed
    assert a.phase_times == b.phase_times
    assert a.traffic == b.traffic


# ---- pipeline strategies, including odd-sized final chunks ---------------


def pipeline(data_bytes: int, passes: float = 3) -> ThreeLevelPipeline:
    node = KNLNode(KNLNodeConfig(mode=MemoryMode.FLAT))
    return ThreeLevelPipeline(
        node, StreamKernel(passes=passes), ThreeLevelConfig(data_bytes=data_bytes)
    )


@pytest.mark.parametrize("strategy", ["direct", "single", "double"])
@pytest.mark.parametrize(
    "data_bytes",
    [int(20 * GiB), int(20 * GiB) + 8, int(50 * GiB) - 8],
)
def test_pipeline_strategies_bit_identical(
    strategy, data_bytes, fast_rows, fast_paths
):
    ref_pipe = pipeline(data_bytes)
    ref = ref_pipe._engine.run(ref_pipe.build_plan(strategy))
    assert fast_rows == []
    fast = pipeline(data_bytes).run(strategy)
    assert_identical(fast, ref)
    pipe = pipeline(data_bytes)
    plans = [pipe.build_plan(strategy)]
    for path, outs in fast_paths(pipe._engine, plans).items():
        assert outs is not None, f"{path} declined"
        assert_identical(outs[0], ref)
    if strategy == "single":
        assert fast_rows == [1]  # the triple-buffered steady state


def test_single_strategy_uses_batched_path(fast_rows):
    pipeline(30 * GiB, passes=2).run("single")
    assert fast_rows == [1]


def test_compare_shares_one_engine(monkeypatch):
    monkeypatch.setattr(engine_mod, "_RATE_MEMO", {})
    pipe = pipeline(30 * GiB, passes=2)
    pipe.compare()
    solves_after_first = len(engine_mod._RATE_MEMO)
    assert solves_after_first > 0
    pipe.compare()  # every solve is memoized now
    assert len(engine_mod._RATE_MEMO) == solves_after_first


# ---- random plans: batched == reference ----------------------------------

flow_strategy = st.tuples(
    st.integers(min_value=1, max_value=64),       # threads
    st.sampled_from([0.2, 1.0, 4.8]),             # per-thread rate (GB/s)
    st.sampled_from(["ddr", "mcdram", "nvm"]),    # extra resource
    st.integers(min_value=0, max_value=30),       # bytes (GiB; 0 = idle)
)

phase_strategy = st.tuples(
    st.booleans(),                                # static_rates
    st.lists(flow_strategy, min_size=1, max_size=3),
)


def build_plan(phases, repeats: int) -> Plan:
    """A plan whose static phases are each one block repeated
    ``repeats`` times (the steady-state shape) and whose dynamic phases
    are added once."""
    plan = Plan("prop")
    for p, (static, flows) in enumerate(phases):
        fl = [
            Flow(
                f"f{p}.{i}",
                threads,
                rate * GB,
                {"ddr": 1.0, extra: 0.5},
                float(nbytes * GiB),
            )
            for i, (threads, rate, extra, nbytes) in enumerate(flows)
        ]
        if all(f.bytes_total == 0 for f in fl):
            fl[0] = Flow(f"f{p}.0", 1, 1.0 * GB, {"ddr": 1.0}, float(GiB))
        if static:
            plan.add_block(
                lambda r, p=p, fl=fl: [
                    Phase(f"p{p}.{r}", fl, static_rates=True)
                ],
                0,
                repeats,
            )
        else:
            plan.add(Phase(f"p{p}.0", fl))
    return plan


@settings(max_examples=80, deadline=None)
@given(
    phases=st.lists(phase_strategy, min_size=1, max_size=4),
    repeats=st.integers(min_value=1, max_value=6),
)
def test_random_plans_bit_identical(phases, repeats, fast_paths):
    plan = build_plan(phases, repeats)
    fast_res, ref_res = run_both(plan, fast_paths)
    assert_identical(fast_res, ref_res)


# ---- structure --------------------------------------------------------


def test_zero_byte_flows_drop_out_of_structure(fast_rows, fast_paths):
    """A zero-byte flow is dead weight in the reference loop; the
    lowered shape must skip it identically."""
    phase = Phase(
        "s",
        [
            Flow("live", 8, 1.0 * GB, {"ddr": 1.0}, float(GiB)),
            Flow("idle", 8, 1.0 * GB, {"mcdram": 1.0}, 0.0),
        ],
        static_rates=True,
    )
    plan = Plan("zeros", [phase] * 4)
    fast_res, ref_res = run_both(plan, fast_paths)
    assert_identical(fast_res, ref_res)
    assert fast_rows == [1]
    assert fast_res.traffic["mcdram"] == 0.0


# ---- fallbacks -----------------------------------------------------------


def steady_plan(n: int = 8) -> Plan:
    """``n`` identical static steps as one repeated block."""

    def step(i: int) -> list[Phase]:
        return [
            Phase(
                f"s{i}",
                [
                    Flow("in", 8, 0.6 * GB, {"nvm": 1.0}, float(4 * GiB)),
                    Flow("comp", 224, 1.0 * GB, {"ddr": 1.0}, float(8 * GiB)),
                ],
                static_rates=True,
            )
        ]

    return Plan("steady").add_block(step, 0, n)


def test_telemetry_session_keeps_tensor_path(fast_rows):
    plan = steady_plan()
    with _tm.telemetry_session() as tel_fast:
        res_fast = batch.run_batch(Engine(RESOURCES), [plan])[0]
    assert fast_rows == [1]
    with _tm.telemetry_session() as tel_ref:
        res_ref = Engine(RESOURCES).run(plan)
    assert fast_rows == [1]  # the reference engine ran the loop
    assert_identical(res_fast, res_ref)
    assert tel_fast.snapshot() == tel_ref.snapshot()
    assert [(e.name, e.time, e.attrs) for e in tel_fast.events] == [
        (e.name, e.time, e.attrs) for e in tel_ref.events
    ]


def test_engine_run_is_only_the_reference_loop(no_fast_path, reference_engine):
    """``Engine.run`` never enters the fast path: with ``run_rows`` and
    ``run_lowered`` refusing, plans whose steady state repeats at least three times
    still return the reference result — on the engine a pipeline holds
    and on a bare one."""
    pipe = pipeline(30 * GiB, passes=2)
    cases = [
        (pipe._engine, pipe.build_plan("single")),
        (Engine(RESOURCES), steady_plan(5)),
    ]
    for eng, plan in cases:
        assert max(plan.repeats) >= 3
        want = reference_engine(eng.resources.values()).run(plan)
        assert_identical(eng.run(plan), want)


def test_starved_group_raises_like_reference(fast_paths):
    """A zero-rate allocation (defensive; unreachable through the real
    max-min allocator) must make both fast evaluators decline, so the
    reference loop raises its per-phase starvation error."""
    plan = steady_plan(3)
    eng = Engine(RESOURCES)
    eng._allocate = lambda live: [0.0] * len(live)
    declined = {"run_rows": None, "run_lowered": None}
    assert fast_paths(eng, [plan]) == declined
    for run in (lambda: batch.run_batch(eng, [plan]), lambda: eng.run(plan)):
        with pytest.raises(SimulationError, match="phase 's0'.*starved"):
            run()


def test_inner_chunk_variation_only_in_bytes():
    """A ragged final chunk (odd data size) stands alone; the steps
    over full chunks stay one repeated block."""
    node = KNLNode(KNLNodeConfig(mode=MemoryMode.FLAT))
    pipe = ThreeLevelPipeline(
        node,
        StreamKernel(passes=2),
        ThreeLevelConfig(
            data_bytes=int(20 * GiB) + 128,
            inner_chunk_bytes=3 * GiB,
        ),
    )
    plan = pipe.build_plan("single")
    repeats = [b.repeat for b in plan.blocks]
    # fill (2) + steady block + ragged copy-in step + drain (2)
    assert repeats == [1, 1, plan.num_phases - 5, 1, 1, 1]


def test_nvm_and_mixed_dynamic_static_interleaving(fast_rows, fast_paths):
    def round_(i: int) -> list[Phase]:
        return [
            Phase(
                f"dyn{i}",
                [
                    Flow("a", 8, 1.0 * GB, {"ddr": 1.0}, float(2 * GiB)),
                    Flow("b", 8, 2.0 * GB, {"mcdram": 1.0}, float(GiB)),
                ],
            ),
            Phase(
                f"st{i}.0",
                [Flow("c", 16, 0.5 * GB, {"nvm": 1.0, "ddr": 1.0}, float(MiB))],
                static_rates=True,
            ),
            Phase(
                f"st{i}.1",
                [Flow("c", 16, 0.5 * GB, {"nvm": 1.0, "ddr": 1.0}, float(3 * MiB))],
                static_rates=True,
            ),
        ]

    plan = Plan("mix").add_block(round_, 0, 3)
    fast_res, ref_res = run_both(plan, fast_paths)
    assert_identical(fast_res, ref_res)
    assert fast_rows == [1]
    assert [p.name for p in plan.phases][3:6] == ["dyn1", "st1.0", "st1.1"]

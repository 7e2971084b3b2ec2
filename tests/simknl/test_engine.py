"""Tests for the discrete-event plan executor."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PlanError
from repro.simknl.engine import Engine, Phase, Plan, RunResult
from repro.simknl.flows import Flow, Resource
from repro.units import GB


def run_flows(flows, resources, name="phase") -> RunResult:
    """Run a single phase of flows to completion."""
    engine = Engine(resources)
    return engine.run(Plan(name=name, phases=[Phase(name=name, flows=flows)]))


def _resources():
    return [Resource("ddr", 90 * GB), Resource("mcdram", 400 * GB)]


def _copy_flow(threads=10, nbytes=14.9 * GB, name="copy"):
    return Flow(name, threads, 4.8 * GB, {"ddr": 1.0, "mcdram": 1.0}, nbytes)


def _comp_flow(threads=100, nbytes=29.8 * GB, name="comp"):
    return Flow(name, threads, 6.78 * GB, {"mcdram": 1.0}, nbytes)


class TestPhaseValidation:
    def test_empty_phase_rejected(self):
        with pytest.raises(PlanError):
            Phase("p", []).validate()

    def test_zero_rate_with_bytes_rejected(self):
        f = Flow("f", 0, 0.0, {"ddr": 1.0}, 10.0)
        with pytest.raises(PlanError):
            Phase("p", [f]).validate()

    def test_total_bytes(self):
        p = Phase("p", [_copy_flow(nbytes=2.0), _comp_flow(nbytes=3.0)])
        assert p.total_bytes == pytest.approx(5.0)


class TestSinglePhase:
    def test_single_flow_time(self):
        """10 copy threads below DDR saturation: t = B / (p * S)."""
        r = run_flows([_copy_flow(threads=10)], _resources())
        assert r.elapsed == pytest.approx(14.9 / 48.0)

    def test_saturated_flow_time(self):
        r = run_flows([_copy_flow(threads=32)], _resources())
        assert r.elapsed == pytest.approx(14.9 / 90.0)

    def test_phase_time_is_max_of_independent_pools(self):
        """Unsaturated pools don't interact: phase ends at the slower."""
        copy = _copy_flow(threads=4, nbytes=4.8 * GB)  # 0.25 s at 19.2 GB/s
        comp = _comp_flow(threads=10, nbytes=67.8 * GB)  # 1.0 s at 67.8 GB/s
        r = run_flows([copy, comp], _resources())
        assert r.elapsed == pytest.approx(1.0)
        assert r.phase_times == [pytest.approx(1.0)]

    def test_early_finisher_frees_bandwidth(self):
        """When the copy pool drains, compute re-expands to full MCDRAM."""
        # Both pools want more MCDRAM than available together.
        copy = Flow("copy", 32, 4.8 * GB, {"ddr": 1.0, "mcdram": 1.0}, 9 * GB)
        comp = Flow("comp", 272, 6.78 * GB, {"mcdram": 1.0}, 400 * GB)
        r = run_flows([copy, comp], _resources())
        # Stage 1: copy at 90, comp at 310 for 0.1 s (copy moves 9 GB).
        # Stage 2: comp alone at 400 for remaining (400 - 31) / 400.
        expected = 0.1 + (400 * GB - 310 * GB * 0.1) / (400 * GB)
        assert r.elapsed == pytest.approx(expected, rel=1e-6)

    def test_traffic_counters(self):
        r = run_flows([_copy_flow(threads=10, nbytes=10 * GB)], _resources())
        assert r.traffic_gb("ddr") == pytest.approx(10.0)
        assert r.traffic_gb("mcdram") == pytest.approx(10.0)

    def test_traffic_respects_multipliers(self):
        f = Flow("f", 10, 4.8 * GB, {"ddr": 0.5, "mcdram": 2.0}, 10 * GB)
        r = run_flows([f], _resources())
        assert r.traffic_gb("ddr") == pytest.approx(5.0)
        assert r.traffic_gb("mcdram") == pytest.approx(20.0)

    def test_zero_byte_flow_completes_instantly(self):
        f = Flow("f", 1, 1 * GB, {"ddr": 1.0}, 0.0)
        r = run_flows([f, _copy_flow(threads=10, nbytes=4.8 * GB)], _resources())
        assert r.elapsed == pytest.approx(1.0 / 10.0)


class TestMultiPhase:
    def test_phases_are_barriers(self):
        """Sequential phases add their times."""
        p1 = Phase("a", [_copy_flow(threads=10, nbytes=4.8 * GB)])
        p2 = Phase("b", [_copy_flow(threads=10, nbytes=9.6 * GB)])
        r = Engine(_resources()).run(Plan("p", [p1, p2]))
        assert r.phase_times == [pytest.approx(0.1), pytest.approx(0.2)]
        assert r.elapsed == pytest.approx(0.3)

    def test_plan_rerunnable(self):
        """Running the same plan twice gives identical results."""
        plan = Plan("p", [Phase("a", [_copy_flow(threads=10)])])
        eng = Engine(_resources())
        r1 = eng.run(plan)
        r2 = eng.run(plan)
        assert r1.elapsed == pytest.approx(r2.elapsed)
        assert r1.traffic == pytest.approx(r2.traffic)

    def test_duplicate_resource_rejected(self):
        with pytest.raises(PlanError):
            Engine([Resource("ddr", 1.0), Resource("ddr", 2.0)])

    def test_plan_total_bytes(self):
        plan = Plan(
            "p",
            [
                Phase("a", [_copy_flow(nbytes=1.0)]),
                Phase("b", [_copy_flow(nbytes=2.0)]),
            ],
        )
        assert plan.total_bytes == pytest.approx(3.0)

    def test_add_is_chainable(self):
        plan = Plan("p").add(Phase("a", [_copy_flow()])).add(
            Phase("b", [_copy_flow()])
        )
        assert len(plan.phases) == 2


class TestRunResult:
    def test_traffic_gb_missing_resource(self):
        r = RunResult(elapsed=1.0, traffic={}, phase_times=[])
        assert r.traffic_gb("nope") == 0.0


@settings(max_examples=100, deadline=None)
@given(
    nbytes=st.floats(min_value=1.0, max_value=50 * GB),
    threads=st.integers(min_value=1, max_value=272),
)
def test_time_lower_bound_is_capacity_bound(nbytes, threads):
    """No schedule beats bytes / resource capacity."""
    r = run_flows(
        [Flow("f", threads, 4.8 * GB, {"ddr": 1.0}, nbytes)],
        [Resource("ddr", 90 * GB)],
    )
    assert r.elapsed >= nbytes / (90 * GB) * (1 - 1e-9)
    assert r.traffic["ddr"] == pytest.approx(nbytes, rel=1e-9)


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.lists(
        st.floats(min_value=0.1 * GB, max_value=10 * GB), min_size=1, max_size=5
    )
)
def test_traffic_conservation(sizes):
    """Physical traffic equals logical bytes times multipliers, always."""
    flows = [
        Flow(f"f{i}", 16, 4.8 * GB, {"ddr": 1.0, "mcdram": 1.0}, s)
        for i, s in enumerate(sizes)
    ]
    r = run_flows(flows, _resources())
    total = sum(sizes)
    assert r.traffic["ddr"] == pytest.approx(total, rel=1e-6)
    assert r.traffic["mcdram"] == pytest.approx(total, rel=1e-6)


@settings(max_examples=60, deadline=None)
@given(
    b1=st.floats(min_value=0.1 * GB, max_value=20 * GB),
    b2=st.floats(min_value=0.1 * GB, max_value=20 * GB),
)
def test_concurrent_never_slower_than_sequential(b1, b2):
    """Sharing bandwidth cannot be worse than serializing the phases."""
    mk = lambda b: Flow("f", 32, 4.8 * GB, {"ddr": 1.0}, b)
    res = [Resource("ddr", 90 * GB)]
    concurrent = run_flows([mk(b1), mk(b2)], res).elapsed
    sequential = run_flows([mk(b1)], res).elapsed + run_flows([mk(b2)], res).elapsed
    assert concurrent <= sequential * (1 + 1e-9)


class TestStaticRates:
    def test_static_phase_is_max_of_components(self):
        """T_step = max(T_copyin, T_comp, T_copyout), the paper's
        pipelined-step law, holds exactly under static rates."""
        copy_in = _copy_flow(threads=8, nbytes=4.8 * GB, name="in")
        comp = _comp_flow(threads=50, nbytes=67.8 * GB, name="comp")
        plan = Plan("p", [Phase("s", [copy_in, comp], static_rates=True)])
        r = Engine(_resources()).run(plan)
        # Neither pool saturates a device, so each runs at p * S.
        t_in = 4.8 / (8 * 4.8)
        t_comp = 67.8 / (50 * 6.78)
        assert r.elapsed == pytest.approx(max(t_in, t_comp))

    def test_static_never_faster_than_resharing(self):
        """Holding rate shares for the full step can only cost time."""
        flows = lambda: [
            _copy_flow(threads=32, nbytes=9 * GB),
            Flow("comp", 272, 6.78 * GB, {"mcdram": 1.0}, 400 * GB),
        ]
        res = _resources()
        t_static = Engine(res).run(
            Plan("p", [Phase("s", flows(), static_rates=True)])
        ).elapsed
        t_share = Engine(res).run(
            Plan("p", [Phase("s", flows(), static_rates=False)])
        ).elapsed
        assert t_static >= t_share * (1 - 1e-9)

    def test_static_traffic_matches_resharing(self):
        flows = lambda: [
            _copy_flow(threads=16, nbytes=5 * GB),
            _comp_flow(threads=64, nbytes=20 * GB),
        ]
        res = _resources()
        r1 = Engine(res).run(Plan("p", [Phase("s", flows(), static_rates=True)]))
        r2 = Engine(res).run(Plan("p", [Phase("s", flows(), static_rates=False)]))
        assert r1.traffic["ddr"] == pytest.approx(r2.traffic["ddr"])
        assert r1.traffic["mcdram"] == pytest.approx(r2.traffic["mcdram"])

    def test_static_empty_phase_zero_time(self):
        p = Phase("s", [Flow("f", 1, 1.0, {"ddr": 1.0}, 0.0)], static_rates=True)
        r = Engine(_resources()).run(Plan("p", [p]))
        assert r.elapsed == 0.0


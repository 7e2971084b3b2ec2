"""Unit and property tests for the max-min fair bandwidth allocator."""

from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PlanError
from repro.simknl.flows import Flow, Resource, aggregate_rate, allocate_rates
from repro.units import GB


def _res(**caps: float) -> dict[str, Resource]:
    return {name: Resource(name=name, capacity=cap) for name, cap in caps.items()}


class TestResource:
    def test_rejects_non_positive_capacity(self):
        with pytest.raises(PlanError):
            Resource(name="ddr", capacity=0.0)
        with pytest.raises(PlanError):
            Resource(name="ddr", capacity=-1.0)

    def test_rejects_empty_name(self):
        with pytest.raises(PlanError):
            Resource(name="", capacity=1.0)

    def test_infinite_capacity_allowed(self):
        r = Resource(name="x", capacity=math.inf)
        assert math.isinf(r.capacity)


class TestFlowValidation:
    def test_rejects_negative_threads(self):
        with pytest.raises(PlanError):
            Flow("f", -1, 1.0, {"r": 1.0}, 1.0)

    def test_rejects_negative_rate(self):
        with pytest.raises(PlanError):
            Flow("f", 1, -1.0, {"r": 1.0}, 1.0)

    def test_rejects_negative_bytes(self):
        with pytest.raises(PlanError):
            Flow("f", 1, 1.0, {"r": 1.0}, -1.0)

    def test_rejects_negative_multiplier(self):
        with pytest.raises(PlanError):
            Flow("f", 1, 1.0, {"r": -0.5}, 1.0)

    def test_rate_cap(self):
        f = Flow("f", 4, 2.5, {"r": 1.0}, 10.0)
        assert f.rate_cap == 10.0


class TestSingleFlow:
    def test_cap_limited(self):
        """One pool below saturation runs at threads * per-thread rate."""
        res = _res(ddr=90 * GB)
        f = Flow("copy", 10, 4.8 * GB, {"ddr": 1.0}, 1.0)
        rates = allocate_rates([f], res)
        assert rates[id(f)] == pytest.approx(48 * GB)

    def test_resource_limited(self):
        """Eq. 3 second branch: saturated DDR caps the aggregate."""
        res = _res(ddr=90 * GB)
        f = Flow("copy", 32, 4.8 * GB, {"ddr": 1.0}, 1.0)
        rates = allocate_rates([f], res)
        assert rates[id(f)] == pytest.approx(90 * GB)

    def test_zero_thread_flow_gets_zero(self):
        res = _res(ddr=90 * GB)
        f = Flow("copy", 0, 4.8 * GB, {"ddr": 1.0}, 1.0)
        assert allocate_rates([f], res)[id(f)] == 0.0

    def test_unknown_resource_raises(self):
        res = _res(ddr=90 * GB)
        f = Flow("copy", 1, 1.0, {"hbm": 1.0}, 1.0)
        with pytest.raises(PlanError):
            allocate_rates([f], res)

    def test_multiplier_scales_consumption(self):
        """A flow using a resource at 2x saturates it at half the rate."""
        res = _res(ddr=90 * GB)
        f = Flow("rmw", 100, 4.8 * GB, {"ddr": 2.0}, 1.0)
        rates = allocate_rates([f], res)
        assert rates[id(f)] == pytest.approx(45 * GB)

    def test_flow_through_two_resources_limited_by_tighter(self):
        res = _res(ddr=90 * GB, mcdram=400 * GB)
        f = Flow("copy", 64, 4.8 * GB, {"ddr": 1.0, "mcdram": 1.0}, 1.0)
        rates = allocate_rates([f], res)
        assert rates[id(f)] == pytest.approx(90 * GB)


class TestTwoPools:
    """The paper's copy + compute contention structure (Eq. 5)."""

    def test_compute_gets_mcdram_remainder(self):
        """Copy capped by DDR; compute gets MCDRAM minus copy share."""
        res = _res(ddr=90 * GB, mcdram=400 * GB)
        copy = Flow("copy", 32, 4.8 * GB, {"ddr": 1.0, "mcdram": 1.0}, 1.0)
        comp = Flow("comp", 200, 6.78 * GB, {"mcdram": 1.0}, 1.0)
        rates = allocate_rates([copy, comp], res)
        assert rates[id(copy)] == pytest.approx(90 * GB)
        assert rates[id(comp)] == pytest.approx(310 * GB)

    def test_compute_unconstrained_when_total_fits(self):
        """Eq. 5 first branch: no saturation, both pools run at p*S."""
        res = _res(ddr=90 * GB, mcdram=400 * GB)
        copy = Flow("copy", 8, 4.8 * GB, {"ddr": 1.0, "mcdram": 1.0}, 1.0)
        comp = Flow("comp", 40, 6.78 * GB, {"mcdram": 1.0}, 1.0)
        rates = allocate_rates([copy, comp], res)
        assert rates[id(copy)] == pytest.approx(8 * 4.8 * GB)
        assert rates[id(comp)] == pytest.approx(40 * 6.78 * GB)

    def test_fair_split_when_both_unbounded_by_caps(self):
        """Two symmetric pools on one saturated resource split evenly."""
        res = _res(mcdram=400 * GB)
        a = Flow("a", 1000, 1 * GB, {"mcdram": 1.0}, 1.0)
        b = Flow("b", 1000, 1 * GB, {"mcdram": 1.0}, 1.0)
        rates = allocate_rates([a, b], res)
        assert rates[id(a)] == pytest.approx(200 * GB)
        assert rates[id(b)] == pytest.approx(200 * GB)

    def test_maxmin_prefers_small_demand_flow(self):
        """A capped small flow gets its cap; the rest goes to the big one."""
        res = _res(mcdram=400 * GB)
        small = Flow("small", 1, 10 * GB, {"mcdram": 1.0}, 1.0)
        big = Flow("big", 1000, 1 * GB, {"mcdram": 1.0}, 1.0)
        rates = allocate_rates([small, big], res)
        assert rates[id(small)] == pytest.approx(10 * GB)
        assert rates[id(big)] == pytest.approx(390 * GB)


class TestAggregateRate:
    def test_below_saturation(self):
        assert aggregate_rate(10, 4.8, 90.0) == pytest.approx(48.0)

    def test_above_saturation(self):
        assert aggregate_rate(32, 4.8, 90.0) == pytest.approx(90.0)

    def test_exact_saturation_boundary(self):
        assert aggregate_rate(5, 18.0, 90.0) == pytest.approx(90.0)

    def test_negative_threads_raises(self):
        with pytest.raises(PlanError):
            aggregate_rate(-1, 4.8, 90.0)


# ---- property-based tests ------------------------------------------------

flow_strategy = st.builds(
    Flow,
    name=st.just("f"),
    threads=st.integers(min_value=0, max_value=300),
    per_thread_rate=st.floats(min_value=0.0, max_value=20 * GB),
    resources=st.dictionaries(
        st.sampled_from(["ddr", "mcdram", "mesh"]),
        st.floats(min_value=0.1, max_value=3.0),
        min_size=1,
        max_size=3,
    ),
    bytes_total=st.floats(min_value=0.0, max_value=100 * GB),
)

resources_strategy = st.fixed_dictionaries(
    {
        "ddr": st.floats(min_value=1 * GB, max_value=200 * GB).map(
            lambda c: Resource("ddr", c)
        ),
        "mcdram": st.floats(min_value=1 * GB, max_value=800 * GB).map(
            lambda c: Resource("mcdram", c)
        ),
        "mesh": st.floats(min_value=1 * GB, max_value=1000 * GB).map(
            lambda c: Resource("mesh", c)
        ),
    }
)


@settings(max_examples=200, deadline=None)
@given(flows=st.lists(flow_strategy, min_size=1, max_size=8), res=resources_strategy)
def test_allocation_never_exceeds_capacity(flows, res):
    """No resource is driven past its capacity (within tolerance)."""
    rates = allocate_rates(flows, res)
    for name, r in res.items():
        used = sum(
            rates[id(f)] * f.resources.get(name, 0.0)
            for f in flows
            if name in f.resources
        )
        assert used <= r.capacity * (1 + 1e-6)


@settings(max_examples=200, deadline=None)
@given(flows=st.lists(flow_strategy, min_size=1, max_size=8), res=resources_strategy)
def test_allocation_never_exceeds_flow_cap(flows, res):
    rates = allocate_rates(flows, res)
    for f in flows:
        assert rates[id(f)] <= f.rate_cap * (1 + 1e-6)


@settings(max_examples=200, deadline=None)
@given(flows=st.lists(flow_strategy, min_size=1, max_size=8), res=resources_strategy)
def test_allocation_is_work_conserving(flows, res):
    """Every flow is either at its cap or on a saturated resource."""
    rates = allocate_rates(flows, res)
    for f in flows:
        if f.rate_cap == 0:
            assert rates[id(f)] == 0.0
            continue
        at_cap = rates[id(f)] >= f.rate_cap * (1 - 1e-6)
        on_saturated = False
        for name, mult in f.resources.items():
            if mult <= 0:
                continue
            used = sum(
                rates[id(g)] * g.resources.get(name, 0.0)
                for g in flows
                if name in g.resources
            )
            if used >= res[name].capacity * (1 - 1e-6):
                on_saturated = True
        assert at_cap or on_saturated


@settings(max_examples=100, deadline=None)
@given(
    threads=st.integers(min_value=1, max_value=272),
    rate=st.floats(min_value=0.1 * GB, max_value=10 * GB),
    cap=st.floats(min_value=1 * GB, max_value=500 * GB),
)
def test_single_flow_matches_closed_form(threads, rate, cap):
    """The allocator degenerates to Eq. 3 for a single pool."""
    res = {"d": Resource("d", cap)}
    f = Flow("f", threads, rate, {"d": 1.0}, 1.0)
    rates = allocate_rates([f], res)
    assert rates[id(f)] == pytest.approx(aggregate_rate(threads, rate, cap))


@settings(max_examples=100, deadline=None)
@given(
    t1=st.integers(min_value=1, max_value=150),
    t2=st.integers(min_value=1, max_value=150),
)
def test_adding_threads_never_decreases_own_rate(t1, t2):
    """Monotonicity: a pool with more threads gets at least as much."""
    res = _res(ddr=90 * GB, mcdram=400 * GB)
    lo, hi = sorted((t1, t2))
    f_lo = Flow("f", lo, 4.8 * GB, {"ddr": 1.0, "mcdram": 1.0}, 1.0)
    f_hi = Flow("f", hi, 4.8 * GB, {"ddr": 1.0, "mcdram": 1.0}, 1.0)
    r_lo = allocate_rates([f_lo], res)[id(f_lo)]
    r_hi = allocate_rates([f_hi], res)[id(f_hi)]
    assert r_hi >= r_lo * (1 - 1e-9)


class TestSignatureCache:
    """Flows are immutable values: the structural signature is computed
    once, at construction, and no field can be reassigned."""

    def _flow(self) -> Flow:
        return Flow("f", 8, 4.8 * GB, {"ddr": 1.0, "mcdram": 0.5}, 1.0)

    def test_cached_object_is_reused(self):
        f = self._flow()
        assert f.signature is f.signature

    def test_value_matches_definition(self):
        f = self._flow()
        assert f.signature == (
            8,
            4.8 * GB,
            (("ddr", 1.0), ("mcdram", 0.5)),
        )

    def test_fields_are_frozen(self):
        f = self._flow()
        sig = f.signature
        for name, value in (
            ("threads", 16),
            ("per_thread_rate", 1.0 * GB),
            ("resources", {"ddr": 2.0}),
            ("bytes_total", 123.0),
        ):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(f, name, value)
        assert f.signature is sig
        assert f.threads == 8 and f.bytes_total == 1.0

    def test_mutating_signature_fields_invalidates(self):
        f = self._flow()
        sig = f.signature
        g = dataclasses.replace(f, threads=16)
        assert g.signature == (16, 4.8 * GB, (("ddr", 1.0), ("mcdram", 0.5)))
        g = dataclasses.replace(f, per_thread_rate=1.0 * GB)
        assert g.signature[1] == 1.0 * GB
        g = dataclasses.replace(f, resources={"ddr": 2.0})
        assert g.signature[2] == (("ddr", 2.0),)
        assert f.signature is sig  # the original is untouched

    def test_bytes_total_mutation_keeps_signature(self):
        f = self._flow()
        g = dataclasses.replace(f, bytes_total=123.0)
        assert g.bytes_total == 123.0
        assert g.signature == f.signature

    def test_equal_structures_share_signature_value(self):
        a = Flow("a", 8, 4.8 * GB, {"mcdram": 0.5, "ddr": 1.0}, 1.0)
        b = Flow("b", 8, 4.8 * GB, {"ddr": 1.0, "mcdram": 0.5}, 99.0)
        assert a.signature == b.signature  # name/bytes/dict-order free

    def test_pickle_and_deepcopy_round_trip(self):
        import copy
        import pickle

        f = self._flow()
        for clone in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f)):
            assert clone == f
            assert clone.signature == f.signature
            with pytest.raises(dataclasses.FrozenInstanceError):
                clone.threads = 99

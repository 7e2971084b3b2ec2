"""Tests for the design-space exploration."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.model.designspace import (
    crossover_passes,
    evaluate_point,
    pareto_front,
    sweep_bandwidth_ratio,
    sweep_far_bandwidth,
)
from repro.model.params import ModelParams


class TestEvaluatePoint:
    def test_matches_optimizer(self):
        pt = evaluate_point(ModelParams(), 256, passes=1.0)
        assert pt.best_p_in == 10
        assert pt.copy_bound
        assert pt.bandwidth_ratio == pytest.approx(400 / 90)

    def test_compute_bound_point(self):
        pt = evaluate_point(ModelParams(), 256, passes=64.0)
        assert not pt.copy_bound
        assert pt.best_p_in == 1


class TestBandwidthRatioSweep:
    def test_more_near_bandwidth_never_slower(self):
        pts = sweep_bandwidth_ratio(passes=4.0)
        times = [p.best_time for p in pts]
        for a, b in zip(times, times[1:]):
            assert b <= a * (1 + 1e-9)

    def test_saturates_at_copy_bound(self):
        """Beyond some ratio the DDR-limited copy floor dominates and
        extra MCDRAM bandwidth buys nothing — the co-design insight."""
        pts = sweep_bandwidth_ratio(passes=1.0, ratios=[6.0, 8.0, 16.0])
        floor = 2 * ModelParams().b_copy / ModelParams().ddr_max
        for p in pts:
            assert p.best_time == pytest.approx(floor, rel=1e-6)
            assert p.copy_bound

    def test_rejects_bad_ratio(self):
        with pytest.raises(ConfigError):
            sweep_bandwidth_ratio(ratios=[0.0])


class TestFarBandwidthSweep:
    def test_far_bandwidth_lifts_copy_floor(self):
        pts = sweep_far_bandwidth(passes=1.0, ddr_values=[45e9, 90e9, 180e9])
        times = [p.best_time for p in pts]
        assert times[0] > times[1] >= times[2]

    def test_rejects_bad_bandwidth(self):
        with pytest.raises(ConfigError):
            sweep_far_bandwidth(ddr_values=[-1.0])


class TestCrossover:
    def test_crossover_between_known_regimes(self):
        """Repeats=2 is copy-bound and repeats=8 compute-bound in the
        paper's Table 3; the crossover must sit between."""
        x = crossover_passes()
        assert 2.0 < x < 8.0

    def test_consistent_with_floor_liftoff(self):
        x = crossover_passes()
        p = ModelParams()
        floor = 2 * p.b_copy / p.ddr_max
        below = evaluate_point(p, 256, x * 0.9).best_time
        above = evaluate_point(p, 256, x * 1.1).best_time
        assert below == pytest.approx(floor, rel=1e-3)
        assert above > floor * 1.01

    def test_bad_bounds_rejected(self):
        with pytest.raises(ConfigError):
            crossover_passes(lo=2.0, hi=1.0)


def _brute_front(points) -> list[bool]:
    """The definition, pair by pair: a point is on the front unless
    another is no worse everywhere and strictly better somewhere."""
    return [
        not any(
            all(a <= b for a, b in zip(q, p)) and any(a < b for a, b in zip(q, p))
            for q in points
        )
        for p in points
    ]


class TestParetoFront:
    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        k=st.integers(min_value=1, max_value=4),
        n=st.integers(min_value=1, max_value=30),
    )
    def test_matches_pairwise_definition(self, data, k, n):
        """Few distinct values per objective, so ties in one objective
        and exact duplicate points are common."""
        value = st.sampled_from([0.0, 1.0, 1.5, 2.0, 3.0, float("inf")])
        distinct = data.draw(
            st.lists(st.tuples(*[value] * k), min_size=1, max_size=n)
        )
        picks = data.draw(
            st.lists(st.sampled_from(distinct), min_size=n, max_size=n)
        )
        points = distinct + picks
        mask = pareto_front(points)
        assert type(mask) is list
        assert mask == _brute_front(points)

    @settings(max_examples=100, deadline=None)
    @given(
        points=st.lists(
            st.tuples(
                st.floats(allow_nan=False, width=16),
                st.floats(allow_nan=False, width=16),
                st.floats(allow_nan=False, width=16),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_matches_pairwise_definition_on_floats(self, points):
        assert pareto_front(points) == _brute_front(points)

    def test_duplicates_of_a_front_point_all_stay(self):
        assert pareto_front([(1, 2), (2, 1), (1, 2), (2, 2)]) == [
            True,
            True,
            True,
            False,
        ]

    @pytest.mark.parametrize("points", [[], [()], [(1, 2), (3,)]])
    def test_rejects_malformed_points(self, points):
        with pytest.raises(ConfigError):
            pareto_front(points)

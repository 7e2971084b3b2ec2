"""Tests for the copy-thread optimizer (Table 3 / Fig. 8a)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.model.optimizer import optimal_copy_threads, sweep_copy_threads
from repro.model.params import ModelParams

P = ModelParams()


class TestSweep:
    def test_default_sweep_covers_feasible_range(self):
        curve = sweep_copy_threads(P, total_threads=256, passes=1)
        p_ins = [m.p_in for m in curve]
        assert p_ins[0] == 1
        assert p_ins[-1] == 127
        assert all(m.p_comp >= 1 for m in curve)

    def test_budget_respected(self):
        for m in sweep_copy_threads(P, total_threads=64, passes=4):
            assert m.p_comp + m.p_in + m.p_out == 64

    def test_explicit_candidates(self):
        curve = sweep_copy_threads(P, passes=1, p_in_values=[1, 2, 4])
        assert [m.p_in for m in curve] == [1, 2, 4]

    def test_infeasible_candidates_skipped(self):
        curve = sweep_copy_threads(
            P, total_threads=16, passes=1, p_in_values=[1, 7, 8]
        )
        assert [m.p_in for m in curve] == [1, 7]

    def test_too_few_threads_rejected(self):
        with pytest.raises(ConfigError):
            sweep_copy_threads(P, total_threads=2)

    def test_all_infeasible_rejected(self):
        with pytest.raises(ConfigError):
            sweep_copy_threads(P, total_threads=8, p_in_values=[4])


class TestOptimum:
    def test_table3_model_column_trend(self):
        """Reproduce Table 3's model column; exact at 5 of 7 rows and
        within the paper's own 'near-optimal' tolerance elsewhere."""
        got = {
            r: optimal_copy_threads(P, 256, passes=r).p_in
            for r in (1, 2, 4, 8, 16, 32, 64)
        }
        paper = {1: 10, 2: 10, 4: 10, 8: 8, 16: 3, 32: 2, 64: 1}
        assert got[1] == paper[1]
        assert got[2] == paper[2]
        assert got[16] == paper[16]
        assert got[32] == paper[32]
        assert got[64] == paper[64]
        # Near-misses stay within a few threads and keep the trend.
        assert abs(got[4] - paper[4]) <= 2
        assert abs(got[8] - paper[8]) <= 3

    def test_optimal_decreasing_in_repeats(self):
        """More compute per byte -> fewer copy threads (Section 5)."""
        values = [
            optimal_copy_threads(P, 256, passes=r).p_in
            for r in (1, 2, 4, 8, 16, 32, 64)
        ]
        for a, b in zip(values, values[1:]):
            assert b <= a

    def test_copy_bound_optimum_saturates_ddr(self):
        """For tiny compute the optimum just saturates DDR (p=10)."""
        res = optimal_copy_threads(P, 256, passes=1)
        assert res.p_in == 10
        assert res.best.copy_bound

    def test_power_of_two_candidates(self):
        res = optimal_copy_threads(
            P, 256, passes=8, p_in_values=[1, 2, 4, 8, 16, 32]
        )
        assert res.p_in in (4, 8)

    def test_result_accessors(self):
        res = optimal_copy_threads(P, 256, passes=4)
        assert res.t_total == res.best.t_total
        assert res.p_in == res.best.p_in
        assert len(res.curve) > 50


@settings(max_examples=40, deadline=None)
@given(
    passes=st.floats(min_value=0.5, max_value=128),
    budget=st.integers(min_value=8, max_value=272),
)
def test_optimum_is_curve_minimum(passes, budget):
    res = optimal_copy_threads(P, budget, passes=passes)
    t_min = min(m.t_total for m in res.curve)
    assert res.t_total <= t_min * (1 + 1e-9)


def _today_rule(curve):
    """The near-tie argmin over a full curve: fewest ``p_in`` among the
    predictions within ``t_min * 1e-9`` of the minimum."""
    t_min = min(m.t_total for m in curve)
    tol = t_min * 1e-9
    return min(
        (m for m in curve if m.t_total <= t_min + tol), key=lambda m: m.p_in
    )


positive = st.floats(min_value=1e6, max_value=1e13, allow_nan=False)


@settings(max_examples=150, deadline=None)
@given(
    params=st.builds(
        ModelParams,
        b_copy=positive,
        ddr_max=positive,
        mcdram_max=positive,
        s_copy=positive,
        s_comp=positive,
    ),
    budget=st.integers(min_value=3, max_value=272),
    passes=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=128)),
    subset=st.one_of(
        st.none(), st.lists(st.integers(min_value=0, max_value=140), min_size=1)
    ),
)
def test_argmin_matches_rule_over_curve(params, budget, passes, subset):
    """The float-loop argmin picks, field for field, what the near-tie
    rule picks over the full curve, and the lazy curve is that curve."""
    try:
        curve = sweep_copy_threads(params, budget, passes, subset)
    except ConfigError:
        with pytest.raises(ConfigError):
            optimal_copy_threads(params, budget, passes, subset)
        return
    res = optimal_copy_threads(params, budget, passes, subset)
    want = _today_rule(curve)
    assert res.best == want
    for name in ("p_comp", "p_in", "p_out", "passes"):
        assert type(getattr(res.best, name)) is type(getattr(want, name))
    assert res.curve == tuple(curve)


@settings(max_examples=150, deadline=None)
@given(
    params=st.builds(
        ModelParams,
        b_copy=positive,
        ddr_max=positive,
        mcdram_max=positive,
        s_copy=positive,
        s_comp=positive,
    ),
    budget=st.integers(min_value=3, max_value=272),
    passes=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=128)),
    others=st.lists(st.integers(min_value=0, max_value=140), max_size=8),
)
def test_near_tie_rule_with_zero_copy_threads(params, budget, passes, others):
    """``p_in = 0`` copies nothing: an infinite ``t_total`` that must
    never win unless every candidate is infinite, and then the fewest
    threads (0) win. The float loop's ``p == 0`` branches must agree
    with the rule over the curve."""
    subset = [0, *others]
    curve = sweep_copy_threads(params, budget, passes, subset)
    res = optimal_copy_threads(params, budget, passes, subset)
    assert res.best == _today_rule(curve)
    if all(m.t_total == float("inf") for m in curve):
        assert res.p_in == 0


@pytest.mark.parametrize("passes", [0.0, 1.0])
def test_zero_copy_threads_alone(passes):
    res = optimal_copy_threads(P, 256, passes, [0])
    assert (res.p_in, res.best.p_comp, res.t_total) == (0, 256, float("inf"))
    assert res.best == sweep_copy_threads(P, 256, passes, [0])[0]


def test_negative_copy_threads_rejected():
    for fn in (optimal_copy_threads, sweep_copy_threads):
        with pytest.raises(ConfigError, match="non-negative"):
            fn(P, 256, 1.0, [4, -1])
    with pytest.raises(ConfigError, match="passes"):
        optimal_copy_threads(P, 256, -1.0)


def test_curve_is_built_only_when_read(monkeypatch):
    import repro.model.optimizer as optimizer

    calls = []
    original = optimizer.sweep_copy_threads

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(optimizer, "sweep_copy_threads", counting)
    res = optimal_copy_threads(P, 256, passes=4)
    assert res.p_in >= 1
    assert "curve" not in vars(res)
    assert calls == []
    curve = res.curve
    assert len(calls) == 1
    assert res.curve is curve  # kept after the first read
    assert len(calls) == 1

"""Tests holding the optimized cache telemetry and the engine's
memoized water-filling solve to their reference behaviour.

The ``access_range`` properties live in ``test_cache.py`` and the
engine's whole fast path is checked by ``test_fast_path_oracle.py``.
"""

from __future__ import annotations

import numpy as np

from repro.simknl import engine as engine_mod
from repro.simknl.cache import DirectMappedCache
from repro.simknl.engine import Engine, Phase, Plan
from repro.simknl.flows import Flow, Resource
from repro.telemetry import runtime as _tm
from repro.telemetry.names import METRICS
from repro.units import GB
from tests.simknl.test_cache import LINE, _scalar_range

# ---- telemetry: one batched inc() == many scalar inc()s ------------------


def _counter_totals(tel):
    totals = {}
    for name in tel.metrics:
        if METRICS[name].kind != "counter":
            continue
        totals[name] = sum(
            value for _, value in tel.metrics.counter(name).series()
        )
    return totals


def test_batched_emission_totals_match_scalar():
    """access_range's single inc(n) calls must leave the same counter
    totals as per-access emission."""
    with _tm.telemetry_session() as tel_fast:
        fast = DirectMappedCache(capacity=8 * LINE, line_size=LINE)
        fast.access_range(0, 32 * LINE, write=True)
        fast.access_range(0, 32 * LINE, write=False)
        fast.flush()
        fast_totals = _counter_totals(tel_fast)
    with _tm.telemetry_session() as tel_ref:
        ref = DirectMappedCache(capacity=8 * LINE, line_size=LINE)
        _scalar_range(ref, 0, 32 * LINE, True)
        _scalar_range(ref, 0, 32 * LINE, False)
        ref.flush()
        ref_totals = _counter_totals(tel_ref)
    assert fast_totals == ref_totals
    assert fast_totals, "expected cache counters to be emitted"
    assert fast.stats == ref.stats


def test_handles_rebound_across_sessions():
    """A cache built inside one session must not leak counts into a
    later session through stale hoisted handles."""
    cache = DirectMappedCache(capacity=4 * LINE, line_size=LINE)
    with _tm.telemetry_session() as first:
        cache.access_range(0, 4 * LINE)
        first_totals = _counter_totals(first)
    with _tm.telemetry_session() as second:
        cache.access_range(0, 4 * LINE)
        second_totals = _counter_totals(second)
    # First sweep cold-misses every line; the second sweep hits the
    # now-resident lines, and its counts must land in the second
    # session's registry, not the first's stale handles.
    assert first_totals["cache.misses_total"] == 4
    assert second_totals["cache.hits_total"] == 4
    assert second_totals["cache.misses_total"] == 0
    assert _counter_totals(first) == first_totals  # untouched afterwards


# ---- engine: memoized allocation == reference allocation -----------------


def _random_plan(rng) -> Plan:
    plan = Plan("random")
    for _ in range(rng.integers(1, 4)):
        flows = []
        for i in range(rng.integers(1, 4)):
            res = {"ddr": 1.0}
            if rng.random() < 0.5:
                res["mcdram"] = float(rng.choice([0.5, 1.0, 2.0]))
            flows.append(
                Flow(
                    f"f{i}",
                    int(rng.integers(1, 64)),
                    float(rng.choice([0.2, 1.0, 4.8])) * GB,
                    res,
                    float(rng.integers(1, 30)) * GB,
                )
            )
        plan.add(Phase(f"p{plan.num_phases}", flows))
    return plan


def test_memoized_engine_matches_reference(reference_engine):
    resources = [
        Resource("ddr", 90 * GB),
        Resource("mcdram", 400 * GB),
    ]
    rng = np.random.default_rng(123)
    for trial in range(60):
        seed = int(rng.integers(0, 2**31))
        memo = Engine(resources).run(
            _random_plan(np.random.default_rng(seed))
        )
        ref = reference_engine(resources).run(
            _random_plan(np.random.default_rng(seed))
        )
        assert memo.elapsed == ref.elapsed, trial
        assert memo.traffic == ref.traffic, trial
        assert memo.phase_times == ref.phase_times, trial


# ---- engine: the memoized solve is reused and invalidated --------------


def test_memo_cache_reused_across_runs(monkeypatch):
    monkeypatch.setattr(engine_mod, "_RATE_MEMO", {})
    resources = [Resource("ddr", 90 * GB)]
    eng = Engine(resources)
    plan = Plan("memo").add(
        Phase("p", [Flow("f", 8, 1.0 * GB, {"ddr": 1.0}, 10 * GB)])
    )
    first = eng.run(plan)
    assert engine_mod._RATE_MEMO
    hits_before = len(engine_mod._RATE_MEMO)
    second = eng.run(plan)
    assert len(engine_mod._RATE_MEMO) == hits_before  # no new solves
    assert first.elapsed == second.elapsed



def _count_solves(monkeypatch) -> list[int]:
    """A fresh process memo, and a list that grows by one per real
    water-filling solve."""
    monkeypatch.setattr(engine_mod, "_RATE_MEMO", {})
    calls: list[int] = []
    original = engine_mod.allocate_rates

    def counting(flows, resources):
        calls.append(len(flows))
        return original(flows, resources)

    monkeypatch.setattr(engine_mod, "allocate_rates", counting)
    return calls


def _two_flow_plan() -> Plan:
    return Plan("shared").add(
        Phase(
            "p",
            [
                Flow("in", 8, 4.8 * GB, {"ddr": 1.0, "mcdram": 1.0}, 10 * GB),
                Flow("comp", 64, 6.78 * GB, {"mcdram": 1.0}, 30 * GB),
            ],
        )
    )


def test_engines_over_equal_resources_share_solves(monkeypatch):
    calls = _count_solves(monkeypatch)
    resources = [Resource("ddr", 90 * GB), Resource("mcdram", 400 * GB)]
    first = Engine(resources).run(_two_flow_plan())
    assert calls  # the first engine solved
    calls.clear()
    # A second engine, over equal but distinct Resource objects given
    # in another order, reuses every solve.
    second = Engine(
        [Resource("mcdram", 400 * GB), Resource("ddr", 90 * GB)]
    ).run(_two_flow_plan())
    assert calls == []
    assert second.elapsed == first.elapsed
    assert second.traffic == first.traffic


def test_engines_with_different_capacities_do_not_share(
    monkeypatch, reference_engine
):
    calls = _count_solves(monkeypatch)
    plan = _two_flow_plan()
    fast = Engine([Resource("ddr", 90 * GB), Resource("mcdram", 400 * GB)])
    slow = Engine([Resource("ddr", 45 * GB), Resource("mcdram", 400 * GB)])
    fast.run(plan)
    solved = len(calls)
    calls.clear()
    slow_result = slow.run(plan)
    assert len(calls) == solved  # every solve is redone
    ref = reference_engine(slow.resources.values()).run(plan)
    assert slow_result.elapsed == ref.elapsed
    assert slow_result.traffic == ref.traffic

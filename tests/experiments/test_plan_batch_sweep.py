"""Tests for the sweep-level cross-cell fast path.

``sweep_map`` sends pending cells of a driver that attached a
:class:`PlanBatchSpec` through one tensor evaluation instead of
per-cell calls; cells the spec declines fall back to serial calls. These
tests pin that wiring: spec used, fallback exercised, memo and store
warmed, the same path under a telemetry session, and the
hash-once-per-unique-cell dedup.
"""

from __future__ import annotations

import pytest

from repro.experiments import ALL_EXPERIMENTS
from repro.experiments import runner
from repro.experiments.runner import replay_session, sweep_map
from repro.experiments.store import get_store
from repro.simknl.batch import PlanBatch, PlanBatchSpec
from repro.simknl.engine import Engine, Phase, Plan
from repro.simknl.flows import Flow, Resource
from repro.telemetry import names as _tn
from repro.telemetry import runtime as _tm
from repro.units import GB, GiB

RESOURCES = (Resource("ddr", 90 * GB), Resource("mcdram", 400 * GB))

FN_CALLS: list[tuple] = []
BUILD_CALLS: list[tuple] = []


def _plan(threads: int, nbytes: float) -> Plan:
    return Plan(
        "cell",
        phases=[
            Phase(
                "p",
                [Flow("f", threads, 1.0 * GB, {"ddr": 1.0}, nbytes)],
                static_rates=True,
            )
        ],
    )


def _cell(threads: int, nbytes: float) -> float:
    FN_CALLS.append((threads, nbytes))
    eng = Engine(RESOURCES, record_events=False)
    return eng.run(_plan(threads, nbytes)).elapsed


def _build(threads: int, nbytes: float) -> PlanBatch | None:
    BUILD_CALLS.append((threads, nbytes))
    if threads == 99:
        return None  # unbatchable: serial fallback
    return PlanBatch(
        resources=RESOURCES,
        plans=(_plan(threads, nbytes),),
        finish=lambda runs: runs[0].elapsed,
    )


_cell.plan_batch = PlanBatchSpec(build=_build)


@pytest.fixture(autouse=True)
def _clear_calls():
    FN_CALLS.clear()
    BUILD_CALLS.clear()


class TestPlanBatchFastPath:
    def test_spec_used_instead_of_cell_fn(self):
        cells = [(8, float(GiB * (i + 1))) for i in range(4)]
        out = sweep_map(_cell, cells, memo={})
        assert len(BUILD_CALLS) == 4
        assert FN_CALLS == []  # never invoked per cell
        # Bit-identical to the serial cell function.
        assert out == [_cell(*c) for c in cells]

    def test_declined_cells_fall_back_to_cell_fn(self):
        cells = [(8, float(GiB)), (99, float(GiB)), (8, float(2 * GiB))]
        out = sweep_map(_cell, cells, memo={})
        assert FN_CALLS == [(99, float(GiB))]
        assert out[1] == _cell(99, float(GiB))

    def test_memo_warmed_by_batched_results(self):
        memo: dict = {}
        cells = [(8, float(GiB)), (8, float(2 * GiB))]
        first = sweep_map(_cell, cells, memo=memo)
        BUILD_CALLS.clear()
        second = sweep_map(_cell, cells, memo=memo)
        assert second == first
        assert BUILD_CALLS == []  # served from the memo
        assert FN_CALLS == []

    def test_store_warmed_and_replayable(self, tmp_path):
        store = get_store(tmp_path)
        cells = [(8, float(GiB)), (8, float(2 * GiB))]
        first = sweep_map(_cell, cells, memo={}, store=store)
        with replay_session(store):
            replayed = sweep_map(_cell, cells, memo={}, store=store)
        assert replayed == first
        assert FN_CALLS == []

    def test_duplicate_cells_one_batch_slot(self):
        cells = [(8, float(GiB)), (8, float(GiB)), (8, float(2 * GiB))]
        out = sweep_map(_cell, cells, memo={})
        assert len(BUILD_CALLS) == 2  # pending dedup ran first
        assert out[0] == out[1]

    def test_telemetry_session_uses_spec(self):
        cells = [(8, float(GiB)), (8, float(2 * GiB))]
        with _tm.telemetry_session() as tel:
            out = sweep_map(_cell, cells, memo={})
        assert len(BUILD_CALLS) == 2
        assert FN_CALLS == []  # the tensor path, as without a session
        # The batched runs are still counted, one per cell.
        assert tel.metrics.counter(_tn.ENGINE_RUNS_TOTAL).value() == 2
        assert out == [_cell(*c) for c in cells]


class TestCellKeyDedup:
    def test_config_hash_once_per_unique_cell(self, monkeypatch):
        counted: list = []
        real = runner.config_hash

        def counting(payload):
            counted.append(payload)
            return real(payload)

        monkeypatch.setattr(runner, "config_hash", counting)
        cells = [(1, 1), (2, 2), (1, 1), (2, 2), (1, 1)]
        out = sweep_map(lambda a, b: a + b, cells, memo={})
        assert out == [2, 4, 2, 4, 2]
        assert len(counted) == 2

    def test_unhashable_cells_still_work(self):
        out = sweep_map(
            lambda xs: sum(xs), [([1, 2],), ([1, 2],)], memo={}
        )
        assert out == [3, 3]


class TestParetoDriver:
    @pytest.fixture(scope="class")
    def res(self):
        return ALL_EXPERIMENTS["pareto"]()

    def test_front_non_degenerate(self, res):
        on = [r for r in res.rows if r["pareto"]]
        vecs = {(r["seconds"], r["energy_j"], r["edp_js"]) for r in on}
        assert 1 < len(vecs)
        assert len(on) < len(res.rows)

    def test_objectives_positive(self, res):
        for r in res.rows:
            assert r["seconds"] > 0
            assert r["energy_j"] > 0
            assert r["edp_js"] == pytest.approx(
                r["seconds"] * r["energy_j"]
            )

    def test_modes_covered(self, res):
        assert {r["mode"] for r in res.rows} == {"flat", "implicit", "ddr"}

    def test_front_rows_undominated(self, res):
        objs = [(r["seconds"], r["energy_j"], r["edp_js"]) for r in res.rows]
        for i, r in enumerate(res.rows):
            if not r["pareto"]:
                continue
            for j, other in enumerate(objs):
                if j == i:
                    continue
                dominates = all(
                    o <= s for o, s in zip(other, objs[i])
                ) and any(o < s for o, s in zip(other, objs[i]))
                assert not dominates

    def test_store_replay_round_trip(self, tmp_path):
        store = get_store(tmp_path)
        fresh = ALL_EXPERIMENTS["pareto"](store=store)
        with replay_session(store):
            replayed = ALL_EXPERIMENTS["pareto"](store=store)
        assert replayed.rows == fresh.rows

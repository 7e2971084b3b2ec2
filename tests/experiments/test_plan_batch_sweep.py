"""Tests for the sweep-level cross-cell fast path.

A :func:`~repro.simknl.batch.plan_cell` is a :class:`PlanBatch` builder
that is also the cell function: called directly it runs its plans one
by one through ``Engine.run``, while ``sweep_map`` sends all pending
cells through one cross-cell batch evaluation instead. These tests pin that
wiring: builder used and the direct path never run, memo and store
warmed, the same path under a telemetry session, the
hash-once-per-unique-cell dedup, for every driver's plan cell a direct
call equal bit for bit to the sweep under an unchanged memo key, and
table3 served from figure8's merge-bench cells (memo and store).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.core.modes import UsageMode
from repro.cli import main
from repro.errors import ConfigError
from repro.experiments import ALL_EXPERIMENTS
from repro.experiments import runner
from repro.experiments.bender import _bender_cell
from repro.experiments.extensions import (
    _adaptive_cell,
    _energy_cell,
    _external_cell,
    _hybrid_cell,
    _nvm_cell,
    _oblivious_cell,
    _victim_cell,
)
from repro.experiments.figure7 import _variant_time
from repro.experiments.figure8 import _figure8_cell
from repro.experiments.pareto import _pareto_cell
from repro.experiments.runner import (
    cost_key,
    replay_session,
    sort_variant_seconds,
    sweep_map,
)
from repro.experiments.store import get_store
from repro.experiments.table2 import _table2_cell
from repro.simknl import batch
from repro.simknl.batch import PlanBatch, plan_cell
from repro.simknl.engine import Engine, Phase, Plan
from repro.simknl.flows import Flow, Resource
from repro.telemetry import names as _tn
from repro.telemetry import runtime as _tm
from repro.units import GB, GiB

RESOURCES = (Resource("ddr", 90 * GB), Resource("mcdram", 400 * GB))

GOLDEN = Path(__file__).resolve().parents[1] / "golden"

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


@plan_cell
def _cell(threads: int, nbytes: float) -> PlanBatch:
    BUILD_CALLS.append((threads, nbytes))
    return PlanBatch(
        resources=RESOURCES,
        plans=(_plan(threads, nbytes),),
        finish=lambda runs: runs[0].elapsed,
    )


@pytest.fixture(autouse=True)
def _clear_calls():
    BUILD_CALLS.clear()


@pytest.fixture
def engine_runs(monkeypatch):
    """Plans run one by one through ``Engine.run``: the direct path.
    The fast path of a multi-cell sweep makes none of these calls."""
    runs: list[Plan] = []
    real = Engine.run

    def counting(self, plan):
        runs.append(plan)
        return real(self, plan)

    monkeypatch.setattr(Engine, "run", counting)
    return runs


class TestPlanBatchFastPath:
    def test_spec_used_instead_of_cell_fn(self, engine_runs):
        cells = [(8, float(GiB * (i + 1))) for i in range(4)]
        out = sweep_map(_cell, cells, memo={})
        assert len(BUILD_CALLS) == 4
        assert engine_runs == []  # the direct path never ran
        # Bit-identical to the direct per-cell path.
        assert out == [_cell(*c) for c in cells]
        assert len(engine_runs) == 4

    def test_memo_warmed_by_batched_results(self, engine_runs):
        memo: dict = {}
        cells = [(8, float(GiB)), (8, float(2 * GiB))]
        first = sweep_map(_cell, cells, memo=memo)
        BUILD_CALLS.clear()
        second = sweep_map(_cell, cells, memo=memo)
        assert second == first
        assert BUILD_CALLS == []  # served from the memo
        assert engine_runs == []

    def test_store_warmed_and_replayable(self, tmp_path, engine_runs):
        store = get_store(tmp_path)
        cells = [(8, float(GiB)), (8, float(2 * GiB))]
        first = sweep_map(_cell, cells, memo={}, store=store)
        with replay_session(store):
            replayed = sweep_map(_cell, cells, memo={}, store=store)
        assert replayed == first
        assert len(BUILD_CALLS) == 2  # the replay built nothing
        assert engine_runs == []

    def test_duplicate_cells_one_batch_slot(self):
        cells = [(8, float(GiB)), (8, float(GiB)), (8, float(2 * GiB))]
        out = sweep_map(_cell, cells, memo={})
        assert len(BUILD_CALLS) == 2  # pending dedup ran first
        assert out[0] == out[1]

    def test_telemetry_session_uses_spec(self, engine_runs):
        cells = [(8, float(GiB)), (8, float(2 * GiB))]
        with _tm.telemetry_session() as tel:
            out = sweep_map(_cell, cells, memo={})
        assert len(BUILD_CALLS) == 2
        assert engine_runs == []  # the fast path, as without a session
        # The batched runs are still counted, one per cell.
        assert tel.metrics.counter(_tn.ENGINE_RUNS_TOTAL).value() == 2
        assert out == [_cell(*c) for c in cells]


def _bits(value):
    """``value`` with every float as its exact hex form."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return [_bits(v) for v in value]
    if isinstance(value, dict):
        return {k: _bits(v) for k, v in value.items()}
    return value


#: Every driver's plan cell, its memo/store key (unchanged for cells
#: that existed before they became plan cells), and representative
#: cells.
PLAN_CELLS = [
    (
        sort_variant_seconds,
        "sort_variant_seconds",
        [
            ("MLM-sort", 2_000_000_000, "random"),
            ("GNU-cache", 4_000_000_000, "reverse"),
            ("MLM-implicit", 6_000_000_000, "random"),
        ],
    ),
    (
        _variant_time,
        "_variant_time",
        [
            (UsageMode.FLAT, 6_000_000_000, 1_000_000_000, None),
            (UsageMode.HYBRID, 6_000_000_000, 500_000_000, None),
            (UsageMode.IMPLICIT, 6_000_000_000, 3_000_000_000, None),
        ],
    ),
    (_table2_cell, "_table2_cell", [()]),
    (_figure8_cell, "_figure8_cell", [(1, 8, 256), (16, 2, 256), (64, 32, 256)]),
    (
        _pareto_cell,
        "_pareto_cell",
        [
            ("flat", 24.0, 512, 8, 1.0),
            ("implicit", 24.0, 1024, 0, 2.0),
            ("ddr", 24.0, 24 * 1024, 0, 1.0),
        ],
    ),
    (_bender_cell, "_bender_cell", [(2_000_000_000, 600_000_000, None)]),
    (_nvm_cell, "_nvm_cell", [(100.0, 8.0), (24.0, 2.0)]),
    (
        _hybrid_cell,
        "_hybrid_cell",
        [(2_000_000_000, 500_000_000, None), (2_000_000_000, 500_000_000, 0.25)],
    ),
    (
        _oblivious_cell,
        "_oblivious_cell",
        [(2_000_000_000, "random"), (2_000_000_000, "reverse")],
    ),
    (
        _energy_cell,
        "_energy_cell",
        [("GNU-flat", 2_000_000_000), ("MLM-implicit", 2_000_000_000)],
    ),
    (
        _external_cell,
        "_external_cell",
        [(2_000_000_000, 14 * GiB), (16_000_000_000, 64 * GiB)],
    ),
    (
        _victim_cell,
        "_victim_cell",
        [
            (6.0, 16, 30.0, 16 * GiB, False),
            (6.0, 16, 30.0, 8 * GiB, True),
            (6.0, 16, 30.0, None, False),
        ],
    ),
    (_adaptive_cell, "_adaptive_cell", [(32.0, 8, 0.5), (16.0, 4, 0.25)]),
]


class TestPlanCells:
    @pytest.mark.parametrize(
        "cell, key, cells", PLAN_CELLS, ids=[k for _, k, _ in PLAN_CELLS]
    )
    def test_direct_call_equals_sweep(self, cell, key, cells):
        assert cost_key(cell) == key  # existing stores stay warm
        direct = [cell(*c) for c in cells]
        swept = sweep_map(cell, cells, memo={})
        assert _bits(swept) == _bits(direct)


class TestSharedMergeBenchCells:
    """table3's empirical column reads figure8's cells: one process
    simulates the merge-bench sweep once, and a figure8 store replays
    table3."""

    def test_table3_after_figure8_runs_no_engine_work(
        self, monkeypatch, engine_runs
    ):
        monkeypatch.setattr(runner, "_SWEEP_MEMO", {})
        batches: list[int] = []
        real = batch.run_batch

        def counting(engine, plans):
            batches.append(len(plans))
            return real(engine, plans)

        monkeypatch.setattr(batch, "run_batch", counting)
        ALL_EXPERIMENTS["figure8"]()
        assert sum(batches) == 42
        batches.clear()
        engine_runs.clear()
        ALL_EXPERIMENTS["table3"]()
        assert batches == []
        assert engine_runs == []

    def test_figure8_store_replays_table3(self, tmp_path, capsys):
        store = str(tmp_path / "s8")
        assert main(["figure8", "--store", store, "--csv", "-"]) == 0
        capsys.readouterr()
        assert main(["replay", "table3", "--store", store, "--csv", "-"]) == 0
        replayed = capsys.readouterr().out.encode()
        assert replayed == (GOLDEN / "table3.out").read_bytes()


class _Opaque:
    """Default ``object.__repr__``: embeds the object's address."""


class TestCellKeyDedup:
    @staticmethod
    def _count_hashes(monkeypatch) -> list:
        counted: list = []
        real = runner.config_hash

        def counting(payload):
            counted.append(payload)
            return real(payload)

        monkeypatch.setattr(runner, "config_hash", counting)
        monkeypatch.delenv("REPRO_STORE", raising=False)
        return counted

    def test_config_hash_once_per_unique_cell(self, monkeypatch, tmp_path):
        """With a store, each unique cell is hashed once for its key."""
        counted = self._count_hashes(monkeypatch)
        cells = [(1, 1), (2, 2), (1, 1), (2, 2), (1, 1)]
        out = sweep_map(
            lambda a, b: a + b, cells, memo={}, store=tmp_path / "s"
        )
        assert out == [2, 4, 2, 4, 2]
        assert len(counted) == 2

    def test_no_store_hashes_nothing(self, monkeypatch):
        counted = self._count_hashes(monkeypatch)
        cells = [(1, 1), (2, 2), (1, 1), (2, 2), (1, 1)]
        out = sweep_map(lambda a, b: a + b, cells, memo={})
        assert out == [2, 4, 2, 4, 2]
        assert counted == []

    def test_address_repr_rejected_without_store(self, monkeypatch):
        """The memo key validates a repr as the store key does: a cell
        holding a default-repr object raises, store or no store."""
        monkeypatch.delenv("REPRO_STORE", raising=False)
        with pytest.raises(ConfigError, match="'_Opaque' has an address"):
            sweep_map(lambda x: 1, [(_Opaque(),)], memo={})

    def test_equal_cells_of_other_types_are_separate_entries(self):
        memo: dict = {}
        out = sweep_map(repr, [(1,), (1.0,), (True,)], memo=memo)
        assert out == ["1", "1.0", "True"]
        assert len(memo) == 3

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

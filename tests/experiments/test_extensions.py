"""Tests for the extension experiment drivers."""

from __future__ import annotations

import pytest

from repro.experiments.extensions import (
    run_ablation,
    run_designspace,
    run_energy,
    run_hybrid,
    run_nvm,
    run_oblivious,
)


class TestNvm:
    def test_three_strategies(self):
        res = run_nvm(data_gib=20)
        assert {r["strategy"] for r in res.rows} == {
            "direct",
            "single",
            "double",
        }

    def test_chunking_wins(self):
        res = run_nvm(data_gib=20)
        times = {r["strategy"]: r["seconds"] for r in res.rows}
        assert times["single"] < times["direct"] / 3
        assert times["double"] < times["direct"] / 3


class TestDesignspace:
    @pytest.fixture(scope="class")
    def res(self):
        return run_designspace()

    def test_two_sweeps_present(self, res):
        sweeps = {r["sweep"] for r in res.rows}
        assert sweeps == {"mcdram/ddr ratio", "ddr GB/s"}

    def test_ratio_sweep_monotone(self, res):
        times = [
            r["best_time_s"] for r in res.rows if r["sweep"] == "mcdram/ddr ratio"
        ]
        for a, b in zip(times, times[1:]):
            assert b <= a * (1 + 1e-9)

    def test_crossover_noted(self, res):
        assert any("crossover" in n for n in res.notes)


class TestHybrid:
    def test_hybrid_matches_flat(self):
        res = run_hybrid()
        base = next(r for r in res.rows if r["config"] == "flat")["seconds"]
        for row in res.rows:
            assert row["seconds"] == pytest.approx(base, rel=0.02)


class TestAblation:
    @pytest.fixture(scope="class")
    def res(self):
        return run_ablation()

    def test_all_scenarios_present(self, res):
        assert len(res.rows) == 5

    def test_gnu_overhead_drives_mlm_ddr_gap(self, res):
        rows = {r["scenario"]: r for r in res.rows}
        full = rows["full model"]
        no_gnu = rows["no gnu overhead"]
        assert no_gnu["gnu_flat_s"] < full["gnu_flat_s"]
        assert no_gnu["headline_speedup"] < full["headline_speedup"]

    def test_reverse_shortcut_drives_order_gap(self, res):
        rows = {r["scenario"]: r for r in res.rows}
        assert rows["no reverse shortcut"]["implicit_reverse_s"] == pytest.approx(
            rows["no reverse shortcut"]["mlm_implicit_s"]
        )
        assert (
            rows["full model"]["implicit_reverse_s"]
            < rows["full model"]["mlm_implicit_s"]
        )

    def test_chunk_overhead_only_affects_mlm(self, res):
        rows = {r["scenario"]: r for r in res.rows}
        assert (
            rows["no chunk overhead"]["gnu_flat_s"]
            == rows["full model"]["gnu_flat_s"]
        )
        assert (
            rows["no chunk overhead"]["mlm_sort_s"]
            < rows["full model"]["mlm_sort_s"]
        )


class TestOblivious:
    def test_between_implicit_and_gnu(self):
        res = run_oblivious()
        for row in res.rows:
            assert row["mlm_implicit_s"] < row["oblivious_s"]
            assert row["oblivious_s"] < row["gnu_cache_s"]


class TestEnergy:
    @pytest.fixture(scope="class")
    def res(self):
        return run_energy()

    def test_all_variants(self, res):
        assert len(res.rows) == 5

    def test_implicit_most_efficient(self, res):
        by_algo = {r["algorithm"]: r for r in res.rows}
        assert (
            by_algo["MLM-implicit"]["energy_j"]
            == min(r["energy_j"] for r in res.rows)
        )
        assert (
            by_algo["MLM-implicit"]["ddr_dynamic_j"]
            < by_algo["GNU-flat"]["ddr_dynamic_j"]
        )

    def test_edp_positive(self, res):
        assert all(r["edp_js"] > 0 for r in res.rows)


class TestPollution:
    @pytest.fixture(scope="class")
    def res(self):
        from repro.experiments.extensions import run_pollution

        return run_pollution()

    def test_pollution_slows_victim(self, res):
        t = {r["scenario"]: r["victim_s"] for r in res.rows}
        assert (
            t["hybrid half-cache, no copies"]
            < t["hybrid half-cache, copy pollution"]
        )

    def test_polluted_cache_still_beats_ddr(self, res):
        t = {r["scenario"]: r["victim_s"] for r in res.rows}
        assert t["hybrid half-cache, copy pollution"] < t["no cache (DDR)"]

    def test_full_cache_fastest(self, res):
        times = [r["victim_s"] for r in res.rows]
        assert res.rows[0]["victim_s"] == min(times)


class TestExternal:
    def test_in_memory_wins_when_fits(self):
        from repro.experiments.extensions import run_external

        res = run_external()
        rows = {r["config"]: r for r in res.rows}
        mlm = next(v for k, v in rows.items() if "in-memory" in k)
        ext = rows["2B external sort"]
        assert mlm["seconds"] < ext["seconds"]

    def test_oversize_marked_infeasible_in_memory(self):
        from repro.experiments.extensions import run_external

        res = run_external()
        big = next(r for r in res.rows if "16B" in r["config"])
        assert big["feasible_in_memory"] is False
        assert big["seconds"] > 0


class TestAdaptive:
    @pytest.fixture(scope="class")
    def res(self):
        from repro.experiments.extensions import run_adaptive

        return run_adaptive()

    def test_aware_full_degrades_most(self, res):
        deg = {r["strategy"]: r["degradation"] for r in res.rows}
        assert deg["aware-full"] > 2.0
        assert deg["aware-full"] > deg["aware-half"]
        assert deg["aware-full"] > deg["adaptive-dc"]

    def test_adaptive_dc_nearly_immune(self, res):
        deg = {r["strategy"]: r["degradation"] for r in res.rows}
        assert deg["adaptive-dc"] < 1.10

    def test_conservative_tuning_costs_when_stable(self, res):
        t = {r["strategy"]: r["stable_s"] for r in res.rows}
        assert t["aware-half"] > t["aware-full"]


class TestFaults:
    @pytest.fixture(scope="class")
    def res(self):
        from repro.experiments.extensions import run_faults

        return run_faults(intensities=(0.0, 0.5, 0.9))

    def test_row_per_intensity(self, res):
        assert [r["intensity"] for r in res.rows] == [0.0, 0.5, 0.9]

    def test_graceful_vs_cliff(self, res):
        rows = {r["intensity"]: r for r in res.rows}
        # The resilient chunked sort stays within a bounded slowdown
        # while the monolithic baseline keeps getting worse.
        assert rows[0.9]["resilient_slowdown"] < rows[0.9]["monolithic_slowdown"]
        assert rows[0.9]["monolithic_s"] > rows[0.5]["monolithic_s"]
        assert rows[0.9]["degraded_to_ddr"]

    def test_recovery_events_reported(self, res):
        faulted = [r for r in res.rows if r["intensity"] > 0]
        assert all(r["recovery_events"] >= 1 for r in faulted)
        clean = res.rows[0]
        assert clean["recovery_events"] == 0

    def test_replay_identical(self):
        from repro.experiments.extensions import run_faults

        a = run_faults(intensities=(0.5,))
        b = run_faults(intensities=(0.5,))
        assert a.rows == b.rows

    def test_baseline_is_lowest_intensity_run(self):
        """Without 0.0 in the sweep, slowdowns must normalize against
        the lowest intensity actually run — not degrade to 1.0."""
        from repro.experiments.extensions import run_faults

        res = run_faults(intensities=(0.9, 0.5))
        rows = {r["intensity"]: r for r in res.rows}
        assert rows[0.5]["resilient_slowdown"] == 1.0
        assert rows[0.5]["monolithic_slowdown"] == 1.0
        assert rows[0.9]["monolithic_slowdown"] > 1.0
        assert any("0.5" in note for note in res.notes)

    def test_zero_baseline_has_no_note(self):
        from repro.experiments.extensions import run_faults

        res = run_faults(intensities=(0.0, 0.5))
        assert not any("normalized against" in n for n in res.notes)

    def test_empty_intensities_rejected(self):
        from repro.errors import ConfigError
        from repro.experiments.extensions import run_faults

        with pytest.raises(ConfigError):
            run_faults(intensities=())
        with pytest.raises(ConfigError):
            run_faults(intensities=(0.5, 1.5))

    def test_ddr_downgrade_threshold(self):
        """Degraded MCDRAM equals DDR bandwidth at i = 0.775 (90 of 400
        GB/s): the sort downgrades to DDR there, but not at 0.75."""
        from repro.experiments.extensions import run_faults

        rows = run_faults(intensities=(0.75, 0.775)).rows
        assert [(r["degraded_to_ddr"], r["recovery_events"]) for r in rows] == [
            (False, 7),
            (True, 2),
        ]

"""Tests for the energy model."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.simknl.energy import DEFAULT_ENERGY_PER_BYTE, EnergyModel
from repro.simknl.engine import RunResult


def result(ddr=1e9, mcdram=4e9, elapsed=1.0):
    return RunResult(
        elapsed=elapsed,
        traffic={"ddr": ddr, "mcdram": mcdram},
        phase_times=[elapsed],
    )


class TestEnergyModel:
    def test_dynamic_energy_proportional_to_traffic(self):
        m = EnergyModel(idle_power={})
        r1 = m.report(result(ddr=1e9, mcdram=0))
        r2 = m.report(result(ddr=2e9, mcdram=0))
        assert r2.dynamic_joules["ddr"] == pytest.approx(
            2 * r1.dynamic_joules["ddr"]
        )

    def test_ddr_costs_more_per_byte(self):
        m = EnergyModel(idle_power={})
        rep = m.report(result(ddr=1e9, mcdram=1e9))
        assert rep.dynamic_joules["ddr"] > rep.dynamic_joules["mcdram"]

    def test_idle_energy_scales_with_time(self):
        m = EnergyModel(energy_per_byte={}, idle_power={"ddr": 10.0})
        rep = m.report(result(elapsed=2.0))
        assert rep.idle_joules["ddr"] == pytest.approx(20.0)

    def test_total_and_edp(self):
        m = EnergyModel(
            energy_per_byte={"ddr": 1e-9}, idle_power={"ddr": 1.0}
        )
        rep = m.report(result(ddr=1e9, mcdram=0, elapsed=2.0))
        assert rep.total_joules == pytest.approx(1.0 + 2.0)
        assert rep.energy_delay_product == pytest.approx(6.0)

    def test_unknown_resources_free(self):
        m = EnergyModel(energy_per_byte={}, idle_power={})
        rep = m.report(result())
        assert rep.total_joules == 0.0

    def test_negative_values_rejected(self):
        with pytest.raises(ConfigError):
            EnergyModel(energy_per_byte={"ddr": -1.0})
        with pytest.raises(ConfigError):
            EnergyModel(idle_power={"ddr": -1.0})

    def test_defaults_mcdram_cheaper(self):
        assert (
            DEFAULT_ENERGY_PER_BYTE["mcdram"]
            < DEFAULT_ENERGY_PER_BYTE["ddr"]
        )


class TestIdleDevicePresence:
    """Idle power is charged only for devices present in the run."""

    def test_absent_device_pays_no_idle(self):
        m = EnergyModel(
            energy_per_byte={}, idle_power={"ddr": 8.0, "nvm": 1.0}
        )
        rep = m.report(result(elapsed=3.0))  # traffic: ddr + mcdram only
        assert rep.idle_joules == {"ddr": pytest.approx(24.0)}
        assert "nvm" not in rep.idle_joules

    def test_present_zero_traffic_device_pays_idle(self):
        """The engine seeds traffic entries for every attached resource,
        so a device with zero moved bytes is still present hardware."""
        m = EnergyModel(energy_per_byte={}, idle_power={"nvm": 1.0})
        r = RunResult(
            elapsed=2.0,
            traffic={"ddr": 1e9, "nvm": 0.0},
            phase_times=[2.0],
        )
        assert m.report(r).idle_joules == {"nvm": pytest.approx(2.0)}

    def test_devices_override_charges_always_on_hardware(self):
        m = EnergyModel(
            energy_per_byte={}, idle_power={"ddr": 8.0, "nvm": 1.0}
        )
        rep = m.report(result(elapsed=2.0), devices=["nvm"])
        assert rep.idle_joules == {"nvm": pytest.approx(2.0)}

    def test_devices_override_ignores_unknown(self):
        m = EnergyModel(energy_per_byte={}, idle_power={"ddr": 8.0})
        rep = m.report(result(elapsed=1.0), devices=["ddr", "disk"])
        assert rep.idle_joules == {"ddr": pytest.approx(8.0)}


class TestReportMany:
    def test_matches_scalar_report_bitwise(self):
        m = EnergyModel()
        results = [
            result(ddr=1e9, mcdram=4e9, elapsed=1.5),
            result(ddr=0.0, mcdram=7e9, elapsed=2.25),
            RunResult(
                elapsed=3.0,
                traffic={"nvm": 5e9, "ddr": 1e9},
                phase_times=[3.0],
            ),
        ]
        singles = [m.report(r) for r in results]
        batched = m.report_many(results)
        for one, many in zip(singles, batched):
            assert one.dynamic_joules == many.dynamic_joules
            assert one.idle_joules == many.idle_joules
            assert one.total_joules == many.total_joules
            assert one.energy_delay_product == many.energy_delay_product

    def test_devices_override_matches_scalar(self):
        m = EnergyModel()
        results = [result(elapsed=1.0), result(elapsed=2.0)]
        singles = [m.report(r, devices=["nvm"]) for r in results]
        batched = m.report_many(results, devices=["nvm"])
        for one, many in zip(singles, batched):
            assert one.idle_joules == many.idle_joules

    def test_empty_list(self):
        assert EnergyModel().report_many([]) == []


class TestOnRealRuns:
    def test_implicit_cheaper_than_gnu(self):
        """Chunked MCDRAM-heavy execution saves energy vs DDR-heavy."""
        from repro.experiments.runner import _sort_variant_plan

        def run(variant):
            node, plan = _sort_variant_plan(variant, 2_000_000_000, "random")
            return node.run(plan)

        m = EnergyModel()
        e_gnu = m.report(run("GNU-flat"))
        e_imp = m.report(run("MLM-implicit"))
        assert e_imp.total_joules < e_gnu.total_joules
        assert e_imp.energy_delay_product < e_gnu.energy_delay_product

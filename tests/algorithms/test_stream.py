"""Tests for the STREAM measurement procedure: the triad and
single-thread plans Table 2 runs on the simulated node."""

from __future__ import annotations

import pytest

from repro.algorithms.stream import micro_rate_plans, stream_triad_plan
from repro.errors import ConfigError
from repro.simknl.node import KNLNode, KNLNodeConfig, MemoryMode
from repro.units import GB


@pytest.fixture
def node():
    return KNLNode(KNLNodeConfig(mode=MemoryMode.FLAT))


def triad_bandwidth(node, device: str) -> float:
    """Bytes over seconds of one saturating STREAM-triad run."""
    plan = stream_triad_plan(node, device)
    return plan.total_bytes / node.run(plan).elapsed


def single_thread_rates(node) -> tuple[float, float]:
    """(S_copy, S_comp) from running the two single-thread plans."""
    copy_plan, comp_plan, nbytes = micro_rate_plans(node)
    return (
        nbytes / node.run(copy_plan).elapsed,
        nbytes / node.run(comp_plan).elapsed,
    )


class TestMeasureBandwidth:
    def test_recovers_ddr_ceiling(self, node):
        """STREAM on the simulator reads back the configured 90 GB/s."""
        bw = triad_bandwidth(node, "ddr")
        assert bw == pytest.approx(90 * GB, rel=0.01)

    def test_recovers_mcdram_ceiling(self, node):
        bw = triad_bandwidth(node, "mcdram")
        assert bw == pytest.approx(400 * GB, rel=0.01)

    def test_custom_bandwidths_recovered(self):
        node = KNLNode(
            KNLNodeConfig(
                mode=MemoryMode.FLAT,
                ddr_bandwidth=120 * GB,
                mcdram_bandwidth=500 * GB,
            )
        )
        assert triad_bandwidth(node, "ddr") == pytest.approx(120 * GB, rel=0.01)
        assert triad_bandwidth(node, "mcdram") == pytest.approx(
            500 * GB, rel=0.01
        )

    def test_unknown_device(self, node):
        with pytest.raises(ConfigError):
            stream_triad_plan(node, "l2")


class TestPerThreadRates:
    def test_close_to_table2(self, node):
        """Little's-law micro-measurements land near 4.8 / 6.78 GB/s."""
        s_copy, s_comp = single_thread_rates(node)
        assert s_copy == pytest.approx(4.8 * GB, rel=0.05)
        assert s_comp == pytest.approx(6.78 * GB, rel=0.05)

    def test_copy_rate_below_compute_rate(self, node):
        s_copy, s_comp = single_thread_rates(node)
        assert s_copy < s_comp


class TestMeasureParams:
    def test_measure_params_roundtrip(self):
        """Table 2's measured column recovers a coherent parameter set
        from the node."""
        from repro.experiments.table2 import run_table2

        result = run_table2()
        p = {r["parameter"]: r["measured_gb"] * 1e9 for r in result.rows}
        assert p["DDR_max"] == pytest.approx(90 * GB, rel=0.01)
        assert p["MCDRAM_max"] == pytest.approx(400 * GB, rel=0.01)
        assert p["S_copy"] == pytest.approx(4.8 * GB, rel=0.05)
        assert p["S_comp"] == pytest.approx(6.78 * GB, rel=0.05)

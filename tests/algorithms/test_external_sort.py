"""Tests for the timed out-of-core external mergesort."""

from __future__ import annotations

import pytest

from repro.algorithms.external_sort import disk_device, external_sort_plan
from repro.errors import ConfigError
from repro.simknl.engine import Engine, RunResult
from repro.simknl.node import KNLNode, KNLNodeConfig, MemoryMode
from repro.units import GB, GiB


def run_external_sort_plan(
    node: KNLNode,
    n: int,
    memory_budget_bytes: float,
    disk_bandwidth: float = 2 * GB,
) -> RunResult:
    """The timed plan run on ``node`` with a disk attached."""
    plan = external_sort_plan(node, n, memory_budget_bytes)
    resources = [*node.resources(), disk_device(bandwidth=disk_bandwidth).resource()]
    return Engine(resources).run(plan)


class TestDiskDevice:
    def test_defaults(self):
        d = disk_device()
        assert d.name == "disk"
        assert d.bandwidth < 90 * GB  # slower than DDR
        assert d.latency > 1e-6


class TestTimedPlan:
    @pytest.fixture
    def node(self):
        return KNLNode(KNLNodeConfig(mode=MemoryMode.FLAT))

    def test_plan_structure(self, node):
        plan = external_sort_plan(node, 10**9, memory_budget_bytes=GiB)
        names = [p.name for p in plan.phases]
        assert names[0] == "run-formation/io"
        assert names[1] == "run-formation/sort"
        assert any("merge-pass" in n for n in names)

    def test_more_runs_more_merge_passes(self, node):
        small = external_sort_plan(
            node, 10**10, memory_budget_bytes=64 * GiB, fan_in=4
        )
        tiny = external_sort_plan(
            node, 10**10, memory_budget_bytes=GiB, fan_in=4
        )
        assert len(tiny.phases) > len(small.phases)

    def test_disk_bound_execution(self, node):
        """With a slow disk the total time is disk-bandwidth limited."""
        n = 10**9
        res = run_external_sort_plan(
            node, n, memory_budget_bytes=16 * GiB, disk_bandwidth=1 * GB
        )
        disk_bytes = res.traffic["disk"]
        assert res.elapsed >= disk_bytes / (1 * GB) * (1 - 1e-9)

    def test_slower_than_in_memory_mlm(self, node):
        """Section 2.2's contrast: when data fits DDR, the in-memory
        sort wins easily."""
        from repro.experiments.runner import sort_variant_seconds

        n = 2_000_000_000
        t_ext = run_external_sort_plan(
            node, n, memory_budget_bytes=14 * GiB
        ).elapsed
        t_mlm = sort_variant_seconds("MLM-sort", n, "random")
        assert t_ext > t_mlm

    def test_faster_disk_helps(self, node):
        n = 10**9
        slow = run_external_sort_plan(
            node, n, 8 * GiB, disk_bandwidth=1 * GB
        ).elapsed
        fast = run_external_sort_plan(
            node, n, 8 * GiB, disk_bandwidth=8 * GB
        ).elapsed
        assert fast < slow

    def test_invalid(self, node):
        with pytest.raises(ConfigError):
            external_sort_plan(node, 0, GiB)
        with pytest.raises(ConfigError):
            external_sort_plan(node, 10, -1.0)
        with pytest.raises(ConfigError):
            external_sort_plan(node, 10, GiB, fan_in=1)

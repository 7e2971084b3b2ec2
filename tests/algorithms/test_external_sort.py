"""Tests for the out-of-core external mergesort."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.algorithms.external_sort import (
    disk_device,
    external_sort,
    external_sort_plan,
)
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


class TestFunctionalExternalSort:
    def test_sorts_with_tiny_budget(self, tmp_path):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 10**6, 10_000, dtype=np.int64)
        out = external_sort(a, memory_budget_elements=512, workdir=str(tmp_path))
        assert np.array_equal(out, np.sort(a))

    def test_many_runs(self, tmp_path):
        rng = np.random.default_rng(1)
        a = rng.integers(-100, 100, 5_000, dtype=np.int64)
        out = external_sort(a, memory_budget_elements=100, workdir=str(tmp_path))
        assert np.array_equal(out, np.sort(a))

    def test_fits_in_memory_fast_path(self):
        a = np.array([3, 1, 2], dtype=np.int64)
        assert np.array_equal(external_sort(a, 100), [1, 2, 3])

    def test_empty(self):
        assert len(external_sort(np.array([], dtype=np.int64), 10)) == 0

    def test_budget_exactly_n(self):
        rng = np.random.default_rng(2)
        a = rng.integers(0, 50, 100, dtype=np.int64)
        assert np.array_equal(external_sort(a, 100), np.sort(a))

    def test_invalid(self):
        with pytest.raises(ConfigError):
            external_sort(np.array([1]), 1)
        with pytest.raises(ConfigError):
            external_sort(np.zeros((2, 2)), 10)


@settings(max_examples=25, deadline=None)
@given(
    arr=arrays(
        dtype=np.int64,
        shape=st.integers(min_value=0, max_value=600),
        elements=st.integers(min_value=-(10**6), max_value=10**6),
    ),
    budget=st.integers(min_value=2, max_value=200),
)
def test_external_sort_property(arr, budget):
    assert np.array_equal(external_sort(arr, budget), np.sort(arr))


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


class TestSpillFaultHandling:
    def _arr(self, n=4096, seed=0):
        rng = np.random.default_rng(seed)
        return rng.integers(0, 10**6, size=n).astype(np.int64)

    def test_failing_merge_leaves_no_orphan_spill_files(
        self, tmp_path, monkeypatch
    ):
        """Spill files are removed on *every* exit path, including an
        I/O error mid-merge."""
        import repro.algorithms.external_sort as ext

        def failing_merge(paths, budget, dtype):
            assert paths and all(p.exists() for p in paths)
            raise OSError("spill device lost mid-merge")

        monkeypatch.setattr(ext, "_merge_runs", failing_merge)
        with pytest.raises(OSError):
            external_sort(
                self._arr(2048),
                memory_budget_elements=64,
                workdir=str(tmp_path),
            )
        assert list(tmp_path.iterdir()) == []

    def test_clean_run_leaves_no_spill_files(self, tmp_path):
        a = self._arr(1024)
        out = external_sort(
            a, memory_budget_elements=128, workdir=str(tmp_path)
        )
        assert np.array_equal(out, np.sort(a, kind="stable"))
        assert list(tmp_path.iterdir()) == []

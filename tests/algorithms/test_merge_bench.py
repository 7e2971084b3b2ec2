"""Tests for the Section 5 streaming merge benchmark."""

from __future__ import annotations

import pytest

from repro.algorithms.merge_bench import (
    MergeBenchConfig,
    merge_bench_kernel,
    run_merge_bench,
    sweep_merge_bench,
)
from repro.core.modes import UsageMode
from repro.errors import ConfigError
from repro.model.params import ModelParams
from repro.simknl.node import KNLNode, KNLNodeConfig, MemoryMode


def flat_node():
    return KNLNode(KNLNodeConfig(mode=MemoryMode.FLAT))


class TestFunctionalKernel:
    def test_kernel_passes(self):
        assert merge_bench_kernel(8).passes(12345) == 8

    def test_invalid_repeats(self):
        with pytest.raises(ConfigError):
            merge_bench_kernel(0)


class TestConfig:
    def test_compute_threads(self):
        cfg = MergeBenchConfig(repeats=1, copy_in_threads=8, total_threads=256)
        assert cfg.compute_threads == 240

    def test_implicit_mode_uses_all_threads(self):
        cfg = MergeBenchConfig(
            repeats=1, copy_in_threads=0, mode=UsageMode.IMPLICIT
        )
        assert cfg.compute_threads == 256

    def test_validation(self):
        with pytest.raises(ConfigError):
            MergeBenchConfig(repeats=0)
        with pytest.raises(ConfigError):
            MergeBenchConfig(repeats=1, copy_in_threads=0)  # flat needs copies
        with pytest.raises(ConfigError):
            MergeBenchConfig(repeats=1, copy_in_threads=128)


class TestTimedBench:
    def test_matches_model_copy_bound(self):
        """At repeats=1 and saturating copy threads the benchmark hits
        the model's 2B/DDR_max floor."""
        node = flat_node()
        cfg = MergeBenchConfig(repeats=1, copy_in_threads=16)
        res = run_merge_bench(node, cfg)
        floor = 2 * cfg.data_bytes / (90e9)
        assert res.elapsed == pytest.approx(floor, rel=0.10)

    def test_more_repeats_more_time(self):
        node = flat_node()
        t = [
            run_merge_bench(
                node, MergeBenchConfig(repeats=r, copy_in_threads=8)
            ).elapsed
            for r in (1, 8, 32)
        ]
        assert t[0] < t[1] < t[2]

    def test_sweep_returns_all_candidates(self):
        node = flat_node()
        times = sweep_merge_bench(node, 4, [1, 4, 16])
        assert set(times) == {1, 4, 16}
        assert all(t > 0 for t in times.values())

    def test_copy_threads_tradeoff_exists(self):
        """Few copy threads starve the pipeline at low repeats; many
        copy threads crowd compute at high repeats (Fig. 8b)."""
        node = flat_node()
        low = sweep_merge_bench(node, 1, [1, 16])
        assert low[16] < low[1]
        high = sweep_merge_bench(node, 64, [1, 32])
        assert high[1] < high[32]


class TestEmpiricalOptimum:
    """The empirical optimum is Table 3's ``empirical_pow2`` column:
    the best of the paper's power-of-two candidates, ties to fewer
    threads (:func:`~repro.algorithms.merge_bench.pick_optimal_copy_threads`)."""

    @pytest.fixture(scope="class")
    def rows(self):
        from repro.experiments.table3 import run_table3

        return {r["repeats"]: r for r in run_table3().rows}

    def test_decreasing_in_repeats(self, rows):
        opts = [rows[r]["empirical_pow2"] for r in (1, 8, 64)]
        assert opts[0] >= opts[1] >= opts[2]

    def test_matches_paper_endpoints(self, rows):
        """Table 3 empirical column: 16 at repeats=1, 1 at repeats=64."""
        assert rows[1]["empirical_pow2"] == 16
        assert rows[64]["empirical_pow2"] == 1

    def test_model_and_empirical_nearby(self, rows):
        """The paper's conclusion: the model picks nearly the same
        copy-thread counts the empirical sweep finds."""
        from repro.model.optimizer import optimal_copy_threads

        for repeats in (1, 16, 64):
            emp = rows[repeats]["empirical_pow2"]
            mod = rows[repeats]["model"]
            assert mod == optimal_copy_threads(
                ModelParams(), 256, passes=repeats
            ).p_in
            assert 0.3 <= (mod / emp) <= 3.0

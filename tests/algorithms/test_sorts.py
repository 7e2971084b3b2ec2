"""Timed tests for the GNU baseline and MLM-sort."""

from __future__ import annotations

import pytest

from repro.algorithms.costs import SortCostModel
from repro.algorithms.mlm_sort import (
    MLMSortConfig,
    basic_chunked_sort_plan,
    mlm_sort_plan,
)
from repro.algorithms.parallel_sort import gnu_sort_plan
from repro.core.modes import UsageMode
from repro.errors import ConfigError
from repro.simknl.node import KNLNode, KNLNodeConfig, MemoryMode


def flat_node():
    return KNLNode(KNLNodeConfig(mode=MemoryMode.FLAT))


def cache_node():
    return KNLNode(KNLNodeConfig(mode=MemoryMode.CACHE))


N2 = 2_000_000_000
MEGA = 1_000_000_000


class TestGnuPlan:
    def test_gnu_flat_near_paper(self):
        node = flat_node()
        t = node.run(gnu_sort_plan(node, N2, "random", UsageMode.DDR)).elapsed
        assert t == pytest.approx(11.92, rel=0.10)

    def test_gnu_cache_beats_flat(self):
        nf, nc = flat_node(), cache_node()
        tf = nf.run(gnu_sort_plan(nf, N2, "random", UsageMode.DDR)).elapsed
        tc = nc.run(gnu_sort_plan(nc, N2, "random", UsageMode.CACHE)).elapsed
        assert tc < tf

    def test_reverse_faster_than_random(self):
        node = flat_node()
        tr = node.run(gnu_sort_plan(node, N2, "random", UsageMode.DDR)).elapsed
        tv = node.run(gnu_sort_plan(node, N2, "reverse", UsageMode.DDR)).elapsed
        assert tv < tr

    def test_mode_validation(self):
        with pytest.raises(ConfigError):
            gnu_sort_plan(flat_node(), N2, "random", UsageMode.FLAT)
        with pytest.raises(ConfigError):
            gnu_sort_plan(flat_node(), N2, "random", UsageMode.CACHE)

    def test_invalid_n(self):
        with pytest.raises(ConfigError):
            gnu_sort_plan(flat_node(), 0, "random", UsageMode.DDR)


class TestMlmPlan:
    def test_mlm_sort_near_paper(self):
        node = flat_node()
        cfg = MLMSortConfig(N2, MEGA, UsageMode.FLAT, "random")
        t = node.run(mlm_sort_plan(node, cfg)).elapsed
        assert t == pytest.approx(8.09, rel=0.10)

    def test_mlm_implicit_near_paper(self):
        node = cache_node()
        cfg = MLMSortConfig(N2, N2, UsageMode.IMPLICIT, "random")
        t = node.run(mlm_sort_plan(node, cfg)).elapsed
        assert t == pytest.approx(7.37, rel=0.10)

    def test_headline_speedup_1_6x_to_1_9x(self):
        """The paper's headline: 1.6-1.9x over GNU sort without MCDRAM."""
        for order, expected in (("random", 11.92 / 7.37), ("reverse", 7.97 / 4.10)):
            nf, nc = flat_node(), cache_node()
            t_gnu = nf.run(gnu_sort_plan(nf, N2, order, UsageMode.DDR)).elapsed
            cfg = MLMSortConfig(N2, N2, UsageMode.IMPLICIT, order)
            t_mlm = nc.run(mlm_sort_plan(nc, cfg)).elapsed
            assert t_gnu / t_mlm == pytest.approx(expected, rel=0.20)
            assert 1.4 < t_gnu / t_mlm < 2.4

    def test_ordering_matches_table1(self):
        """GNU-flat > GNU-cache > MLM-ddr > MLM-sort > MLM-implicit."""
        nf, nc = flat_node(), cache_node()
        t = [
            nf.run(gnu_sort_plan(nf, N2, "random", UsageMode.DDR)).elapsed,
            nc.run(gnu_sort_plan(nc, N2, "random", UsageMode.CACHE)).elapsed,
            nf.run(
                mlm_sort_plan(nf, MLMSortConfig(N2, MEGA, UsageMode.DDR))
            ).elapsed,
            nf.run(
                mlm_sort_plan(nf, MLMSortConfig(N2, MEGA, UsageMode.FLAT))
            ).elapsed,
            nc.run(
                mlm_sort_plan(nc, MLMSortConfig(N2, N2, UsageMode.IMPLICIT))
            ).elapsed,
        ]
        assert t == sorted(t, reverse=True)

    def test_flat_megachunk_capacity_enforced(self):
        node = flat_node()
        cfg = MLMSortConfig(N2 * 3, N2 * 3, UsageMode.FLAT)
        with pytest.raises(ConfigError):
            mlm_sort_plan(node, cfg)

    def test_implicit_megachunk_may_exceed_mcdram(self):
        node = cache_node()
        cfg = MLMSortConfig(6_000_000_000, 6_000_000_000, UsageMode.IMPLICIT)
        t = node.run(mlm_sort_plan(node, cfg)).elapsed
        assert t > 0

    def test_single_megachunk_skips_final_merge(self):
        node = cache_node()
        one = mlm_sort_plan(node, MLMSortConfig(N2, N2, UsageMode.IMPLICIT))
        many = mlm_sort_plan(node, MLMSortConfig(N2, MEGA, UsageMode.IMPLICIT))
        assert not any("final-merge" in p.name for p in one.phases)
        assert any("final-merge" in p.name for p in many.phases)

    @pytest.mark.parametrize("megachunks", [3, 6, 12])
    def test_equal_megachunks_are_one_repeated_block(self, megachunks):
        mega = 250_000_000
        node = flat_node()
        plan = mlm_sort_plan(
            node, MLMSortConfig(megachunks * mega, mega, UsageMode.FLAT)
        )
        # the megachunk block, then the final merge
        assert [b.repeat for b in plan.blocks] == [megachunks, 1]
        names = [p.name for p in plan.phases]
        assert names[:4] == [
            "mega0/setup",
            "mega0/copy-in",
            "mega0/serial-sort",
            "mega0/merge",
        ]
        assert names[-2:] == [f"mega{megachunks - 1}/merge", "final-merge"]
        assert plan.num_phases == 4 * megachunks + 1
        assert len(node.run(plan).phase_times) == plan.num_phases

    def test_hybrid_mode_runs(self):
        node = KNLNode(
            KNLNodeConfig(mode=MemoryMode.HYBRID, hybrid_cache_fraction=0.5)
        )
        cfg = MLMSortConfig(N2, 500_000_000, UsageMode.HYBRID)
        t = node.run(mlm_sort_plan(node, cfg)).elapsed
        assert t > 0

    def test_hybrid_near_flat_given_same_chunk(self):
        """Paper Section 4.2: hybrid ~ flat at equal chunk size."""
        mega = 500_000_000
        nf = flat_node()
        nh = KNLNode(
            KNLNodeConfig(mode=MemoryMode.HYBRID, hybrid_cache_fraction=0.5)
        )
        tf = nf.run(mlm_sort_plan(nf, MLMSortConfig(N2, mega, UsageMode.FLAT))).elapsed
        th = nh.run(
            mlm_sort_plan(nh, MLMSortConfig(N2, mega, UsageMode.HYBRID))
        ).elapsed
        assert th == pytest.approx(tf, rel=0.02)

    def test_buffered_megachunks_extension_not_slower(self):
        """The future-work buffered variant hides copy-in latency."""
        node = flat_node()
        base = node.run(
            mlm_sort_plan(node, MLMSortConfig(N2 * 3, MEGA, UsageMode.FLAT))
        ).elapsed
        buf = node.run(
            mlm_sort_plan(
                node,
                MLMSortConfig(
                    N2 * 3, MEGA, UsageMode.FLAT, buffered_megachunks=True
                ),
            )
        ).elapsed
        assert buf <= base

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            MLMSortConfig(0, 1)
        with pytest.raises(ConfigError):
            MLMSortConfig(1, 0)
        with pytest.raises(ConfigError):
            MLMSortConfig(1, 1, UsageMode.CACHE)
        with pytest.raises(ConfigError):
            MLMSortConfig(
                1, 1, buffered_megachunks=True, copy_in_threads=256, threads=256
            )


class TestBasicChunkedPlan:
    def test_beats_gnu_flat(self):
        """Bender corroboration: chunking speeds up the basic sort."""
        node = flat_node()
        t_basic = node.run(
            basic_chunked_sort_plan(node, N2, 600_000_000)
        ).elapsed
        t_gnu = node.run(gnu_sort_plan(node, N2, "random", UsageMode.DDR)).elapsed
        assert 1.05 < t_gnu / t_basic < 1.6

    def test_reduces_ddr_traffic(self):
        node = flat_node()
        r_basic = node.run(basic_chunked_sort_plan(node, N2, 600_000_000))
        r_gnu = node.run(gnu_sort_plan(node, N2, "random", UsageMode.DDR))
        assert r_gnu.traffic["ddr"] / r_basic.traffic["ddr"] > 2.0

    def test_no_compute_threads_rejected(self):
        with pytest.raises(ConfigError):
            basic_chunked_sort_plan(
                flat_node(), N2, 600_000_000, threads=16, copy_in_threads=8
            )


class TestCostSensitivity:
    def test_slower_sort_rate_slower_time(self):
        node = flat_node()
        cfg = MLMSortConfig(N2, MEGA, UsageMode.FLAT)
        fast = node.run(mlm_sort_plan(node, cfg, SortCostModel())).elapsed
        slow = node.run(
            mlm_sort_plan(node, cfg, SortCostModel(s_sort_random=0.1e9))
        ).elapsed
        assert slow > fast

    def test_chunk_overhead_scales_with_chunks(self):
        node = flat_node()
        c = SortCostModel(chunk_overhead_s=1.0)
        few = node.run(
            mlm_sort_plan(node, MLMSortConfig(N2, MEGA, UsageMode.FLAT), c)
        ).elapsed
        many = node.run(
            mlm_sort_plan(node, MLMSortConfig(N2, MEGA // 4, UsageMode.FLAT), c)
        ).elapsed
        assert many > few

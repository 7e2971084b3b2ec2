"""Tests for the assembled KNL node and its memory modes."""

from __future__ import annotations

import pytest

from repro.errors import CapacityError, ConfigError
from repro.simknl.engine import Phase, Plan
from repro.simknl.flows import Flow
from repro.simknl.node import KNLNode, KNLNodeConfig, MemoryMode
from repro.units import GB, GiB


class TestConfig:
    def test_defaults_match_paper(self):
        cfg = KNLNodeConfig()
        assert cfg.cores == 68
        assert cfg.total_threads == 272
        assert cfg.ddr_bandwidth == 90 * GB
        assert cfg.mcdram_bandwidth == 400 * GB
        assert cfg.mcdram_capacity == 16 * GiB

    def test_rejects_bad_cores(self):
        with pytest.raises(ConfigError):
            KNLNodeConfig(cores=0)

    def test_rejects_bad_hybrid_fraction(self):
        with pytest.raises(ConfigError):
            KNLNodeConfig(mode=MemoryMode.HYBRID, hybrid_cache_fraction=0.0)
        with pytest.raises(ConfigError):
            KNLNodeConfig(mode=MemoryMode.HYBRID, hybrid_cache_fraction=1.0)

    def test_with_mode(self):
        cfg = KNLNodeConfig(mode=MemoryMode.CACHE)
        flat = cfg.with_mode(MemoryMode.FLAT)
        assert flat.mode is MemoryMode.FLAT
        assert cfg.mode is MemoryMode.CACHE  # original untouched

    def test_with_mode_hybrid_fraction(self):
        cfg = KNLNodeConfig().with_mode(MemoryMode.HYBRID, 0.25)
        assert cfg.hybrid_cache_fraction == 0.25


class TestModes:
    def test_flat_mode_all_addressable(self):
        n = KNLNode(KNLNodeConfig(mode=MemoryMode.FLAT))
        assert n.addressable_mcdram == 16 * GiB
        assert n.cache_capacity == 0
        assert n.cache_model is None

    def test_cache_mode_nothing_addressable(self):
        n = KNLNode(KNLNodeConfig(mode=MemoryMode.CACHE))
        assert n.addressable_mcdram == 0
        assert n.cache_capacity == 16 * GiB
        assert n.cache_model is not None

    def test_hybrid_mode_splits(self):
        n = KNLNode(
            KNLNodeConfig(mode=MemoryMode.HYBRID, hybrid_cache_fraction=0.25)
        )
        assert n.cache_capacity == pytest.approx(4 * GiB)
        assert n.addressable_mcdram == pytest.approx(12 * GiB)
        assert n.cache_model is not None

    def test_tag_overhead_shrinks_cache_model(self):
        n = KNLNode(KNLNodeConfig(mode=MemoryMode.CACHE, tag_overhead=0.03))
        assert n.cache_model.usable_capacity < 16 * GiB


class TestDevices:
    def test_device_names(self):
        n = KNLNode()
        assert n.ddr.name == "ddr"
        assert n.mcdram.name == "mcdram"

    def test_resources_default(self):
        n = KNLNode()
        names = {r.name for r in n.resources()}
        assert names == {"ddr", "mcdram"}

    def test_resources_with_mesh(self):
        n = KNLNode(KNLNodeConfig(model_mesh=True))
        names = {r.name for r in n.resources()}
        assert names == {"ddr", "mcdram", "mesh"}

    def test_capacity_reservation(self):
        n = KNLNode()
        n.mcdram.reserve(8 * GiB)
        assert n.mcdram.free == pytest.approx(8 * GiB)
        n.mcdram.release(8 * GiB)
        assert n.mcdram.free == pytest.approx(16 * GiB)

    def test_over_reservation_raises(self):
        n = KNLNode()
        with pytest.raises(CapacityError):
            n.mcdram.reserve(17 * GiB)

    def test_over_release_raises(self):
        n = KNLNode()
        with pytest.raises(CapacityError):
            n.mcdram.release(1.0)

    def test_per_thread_rate_bound_positive(self):
        n = KNLNode()
        assert n.ddr.per_thread_rate_bound() > 0
        # Little's law: 10 lines * 64B / 130ns ~ 4.9 GB/s, consistent
        # with the paper's measured S_copy of 4.8 GB/s.
        assert n.ddr.per_thread_rate_bound(10) == pytest.approx(
            10 * 64 / 130e-9
        )


class TestTopologyConsistency:
    def test_topology_thread_count_matches_config(self):
        n = KNLNode()
        assert n.topology.num_threads == n.total_threads

    def test_small_node(self):
        n = KNLNode(KNLNodeConfig(cores=4, threads_per_core=2))
        assert n.topology.num_cores >= 4
        assert n.total_threads == 8


class TestExecution:
    def test_run_plan(self):
        n = KNLNode()
        f = Flow("copy", 10, 4.8 * GB, {"ddr": 1.0, "mcdram": 1.0}, 4.8 * GB)
        r = n.run(Plan("p", [Phase("s", [f])]))
        assert r.elapsed == pytest.approx(0.1)

    def test_engine_fresh_each_call(self):
        n = KNLNode()
        assert n.engine() is not n.engine()

    def test_repr_mentions_mode(self):
        assert "cache" in repr(KNLNode())


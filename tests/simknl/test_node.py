"""Tests for the assembled KNL node and its memory modes."""

from __future__ import annotations

from dataclasses import FrozenInstanceError

import pytest

from repro.errors import ConfigError
from repro.simknl.engine import Phase, Plan
from repro.simknl.flows import Flow
from repro.simknl import node as node_mod
from repro.simknl.node import KNLNode, KNLNodeConfig, MemoryMode, boot
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

    def test_devices_are_frozen(self):
        n = KNLNode()
        with pytest.raises(FrozenInstanceError):
            n.mcdram.capacity = 8 * GiB

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



class TestBoot:
    def test_one_node_per_config(self, monkeypatch):
        monkeypatch.setattr(node_mod, "_BOOTED", {})
        flat = boot(KNLNodeConfig(mode=MemoryMode.FLAT))
        assert boot(KNLNodeConfig(mode=MemoryMode.FLAT)) is flat
        assert boot(KNLNodeConfig(mode=MemoryMode.CACHE)) is not flat
        assert boot() is boot(KNLNodeConfig())

    def test_memo_dropped_when_full(self, monkeypatch):
        monkeypatch.setattr(node_mod, "_BOOTED", {})
        monkeypatch.setattr(node_mod, "_BOOTED_MAX", 2)
        first = boot(KNLNodeConfig(cores=2))
        boot(KNLNodeConfig(cores=4))
        boot(KNLNodeConfig(cores=6))
        assert len(node_mod._BOOTED) == 1
        assert boot(KNLNodeConfig(cores=2)) is not first

    def test_resources_built_once(self):
        n = KNLNode()
        assert n.resources() is n.resources()
        assert [r.name for r in n.resources()] == ["ddr", "mcdram"]

    def test_sweep_boots_each_config_once(self, monkeypatch):
        """A sort-variant sweep boots at most its two BIOS modes, and
        its results match fresh per-cell runs bit for bit."""
        from repro.experiments.runner import (
            VARIANTS,
            node_for_variant,
            sort_variant_run,
            sort_variant_seconds,
            sweep_map,
        )

        monkeypatch.setattr(node_mod, "_BOOTED", {})
        boots = []
        init = KNLNode.__init__

        def counting_init(self, config=None):
            boots.append(config)
            init(self, config)

        monkeypatch.setattr(KNLNode, "__init__", counting_init)
        cells = [
            (variant, n, order, None, mega)
            for variant in VARIANTS
            for n in (1_000_000_000, 2_500_000_000, 6_000_000_000)
            for order in ("random", "reverse")
            for mega in (None, 500_000_000)
        ]
        assert len(cells) >= 50
        got = sweep_map(sort_variant_seconds, cells, memo={})
        assert len(boots) <= 2
        for cell, seconds in zip(cells, got):
            variant, n, order, cost, mega = cell
            ref = sort_variant_run(variant, n, order, cost, mega).elapsed
            assert seconds == ref, cell
        shared = node_for_variant("MLM-sort")
        with pytest.raises(FrozenInstanceError):
            shared.ddr.bandwidth = 1.0

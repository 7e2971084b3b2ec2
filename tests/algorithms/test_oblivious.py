"""Tests for the timed cache-oblivious mergesort comparison point."""

from __future__ import annotations

import pytest

from repro.algorithms.oblivious import oblivious_sort_plan
from repro.core.modes import UsageMode
from repro.errors import ConfigError
from repro.simknl.node import KNLNode, KNLNodeConfig, MemoryMode


class TestTimed:
    def test_same_plan_shape_in_every_mode(self):
        """Obliviousness: the phase structure is machine-independent."""
        n = 2_000_000_000
        cache = KNLNode(KNLNodeConfig(mode=MemoryMode.CACHE))
        flat = KNLNode(KNLNodeConfig(mode=MemoryMode.FLAT))
        p1 = oblivious_sort_plan(cache, n, mode=UsageMode.CACHE)
        p2 = oblivious_sort_plan(flat, n, mode=UsageMode.DDR)
        # Same logical bytes regardless of mode.
        assert p1.total_bytes == pytest.approx(p2.total_bytes)

    def test_lands_between_implicit_and_gnu_cache(self):
        """The Section 2.1 conjecture, quantified."""
        from repro.experiments.runner import sort_variant_seconds

        n = 2_000_000_000
        node = KNLNode(KNLNodeConfig(mode=MemoryMode.CACHE))
        t_obl = node.run(
            oblivious_sort_plan(node, n, mode=UsageMode.CACHE)
        ).elapsed
        t_imp = sort_variant_seconds("MLM-implicit", n, "random")
        t_gnu = sort_variant_seconds("GNU-cache", n, "random")
        assert t_imp < t_obl < t_gnu

    def test_cache_mode_beats_ddr_mode(self):
        """The oblivious algorithm benefits from MCDRAM untouched."""
        n = 2_000_000_000
        cache = KNLNode(KNLNodeConfig(mode=MemoryMode.CACHE))
        flat = KNLNode(KNLNodeConfig(mode=MemoryMode.FLAT))
        t_cache = cache.run(
            oblivious_sort_plan(cache, n, mode=UsageMode.CACHE)
        ).elapsed
        t_ddr = flat.run(oblivious_sort_plan(flat, n, mode=UsageMode.DDR)).elapsed
        assert t_cache < t_ddr

    def test_reverse_faster(self):
        n = 2_000_000_000
        node = KNLNode(KNLNodeConfig(mode=MemoryMode.CACHE))
        t_rand = node.run(
            oblivious_sort_plan(node, n, "random", UsageMode.CACHE)
        ).elapsed
        t_rev = node.run(
            oblivious_sort_plan(node, n, "reverse", UsageMode.CACHE)
        ).elapsed
        assert t_rev < t_rand

    def test_invalid_args(self):
        node = KNLNode(KNLNodeConfig(mode=MemoryMode.CACHE))
        with pytest.raises(ConfigError):
            oblivious_sort_plan(node, 0)
        with pytest.raises(ConfigError):
            oblivious_sort_plan(node, 10, threads=0)

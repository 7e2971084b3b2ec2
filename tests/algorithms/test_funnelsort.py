"""Tests for the timed funnelsort plan."""

from __future__ import annotations

import pytest

from repro.algorithms.funnelsort import (
    FUNNEL_BASE,
    funnelsort_merge_depth,
    funnelsort_plan,
)
from repro.algorithms.oblivious import oblivious_sort_plan
from repro.errors import ConfigError
from repro.experiments.runner import sort_variant_seconds
from repro.simknl.node import KNLNode, KNLNodeConfig, MemoryMode


class TestTimedFunnelsort:
    def test_between_implicit_and_gnu_cache(self):
        n = 2_000_000_000
        node = KNLNode(KNLNodeConfig(mode=MemoryMode.CACHE))
        t_fun = node.run(funnelsort_plan(node, n)).elapsed
        t_imp = sort_variant_seconds("MLM-implicit", n, "random")
        t_gnu = sort_variant_seconds("GNU-cache", n, "random")
        assert t_imp < t_fun < t_gnu

    def test_funnelsort_beats_naive_oblivious(self):
        """Fewer cross-block rounds than the plain binary mergesort."""
        n = 2_000_000_000
        node = KNLNode(KNLNodeConfig(mode=MemoryMode.CACHE))
        t_fun = node.run(funnelsort_plan(node, n)).elapsed
        t_obl = node.run(oblivious_sort_plan(node, n)).elapsed
        assert t_fun <= t_obl

    def test_invalid(self):
        node = KNLNode(KNLNodeConfig(mode=MemoryMode.CACHE))
        with pytest.raises(ConfigError):
            funnelsort_plan(node, 0)


class TestMergeDepth:
    def test_tiny_is_zero(self):
        assert funnelsort_merge_depth(FUNNEL_BASE) == 0

    def test_grows_very_slowly(self):
        """Θ(log log n): a 10^6x size increase adds only a couple of
        rounds — the structural difference vs binary mergesort."""
        assert funnelsort_merge_depth(10**9) <= funnelsort_merge_depth(10**3) + 4

    def test_monotone(self):
        depths = [funnelsort_merge_depth(n) for n in (10**2, 10**4, 10**6, 10**8)]
        assert depths == sorted(depths)

    def test_invalid(self):
        with pytest.raises(ConfigError):
            funnelsort_merge_depth(0)

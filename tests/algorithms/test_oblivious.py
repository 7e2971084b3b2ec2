"""Tests for the cache-oblivious mergesort comparison point."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.algorithms.oblivious import (
    BASE_CASE,
    oblivious_mergesort,
    oblivious_sort_plan,
)
from repro.core.modes import UsageMode
from repro.errors import ConfigError
from repro.simknl.node import KNLNode, KNLNodeConfig, MemoryMode


class TestFunctional:
    def test_sorts_random(self):
        rng = np.random.default_rng(0)
        a = rng.integers(-1000, 1000, 2000, dtype=np.int64)
        assert np.array_equal(oblivious_mergesort(a), np.sort(a))

    def test_base_case(self):
        a = np.array([3, 1, 2], dtype=np.int64)
        assert len(a) <= BASE_CASE
        assert np.array_equal(oblivious_mergesort(a), [1, 2, 3])

    def test_empty(self):
        assert len(oblivious_mergesort(np.array([], dtype=np.int64))) == 0

    def test_rejects_2d(self):
        with pytest.raises(ConfigError):
            oblivious_mergesort(np.zeros((2, 2)))


@settings(max_examples=60, deadline=None)
@given(
    arr=arrays(
        dtype=np.int64,
        shape=st.integers(min_value=0, max_value=500),
        elements=st.integers(min_value=-(10**9), max_value=10**9),
    )
)
def test_oblivious_matches_numpy(arr):
    assert np.array_equal(oblivious_mergesort(arr), np.sort(arr))


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

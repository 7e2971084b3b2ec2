"""Tests for the funnelsort implementation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.algorithms.funnelsort import (
    FUNNEL_BASE,
    funnelsort,
    funnelsort_merge_depth,
)
from repro.errors import ConfigError


class TestFunnelsort:
    def test_sorts_random(self):
        rng = np.random.default_rng(0)
        a = rng.integers(-(10**6), 10**6, 5000, dtype=np.int64)
        assert np.array_equal(funnelsort(a), np.sort(a))

    def test_base_case(self):
        a = np.array([5, 2, 9], dtype=np.int64)
        assert len(a) <= FUNNEL_BASE
        assert np.array_equal(funnelsort(a), [2, 5, 9])

    def test_empty(self):
        assert len(funnelsort(np.array([], dtype=np.int64))) == 0

    def test_reverse(self):
        a = np.arange(1000, dtype=np.int64)[::-1].copy()
        assert np.array_equal(funnelsort(a), np.arange(1000))

    def test_duplicates(self):
        a = np.full(500, 7, dtype=np.int64)
        assert np.array_equal(funnelsort(a), a)

    def test_input_unmodified(self):
        a = np.array([3, 1, 2] * 100, dtype=np.int64)
        snapshot = a.copy()
        funnelsort(a)
        assert np.array_equal(a, snapshot)

    def test_rejects_2d(self):
        with pytest.raises(ConfigError):
            funnelsort(np.zeros((2, 2)))


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


@settings(max_examples=60, deadline=None)
@given(
    arr=arrays(
        dtype=np.int64,
        shape=st.integers(min_value=0, max_value=1500),
        elements=st.integers(min_value=-(10**9), max_value=10**9),
    )
)
def test_funnelsort_matches_numpy(arr):
    assert np.array_equal(funnelsort(arr), np.sort(arr))


class TestTimedFunnelsort:
    def test_between_implicit_and_gnu_cache(self):
        from repro.algorithms.funnelsort import funnelsort_plan
        from repro.experiments.runner import sort_variant_seconds
        from repro.simknl.node import KNLNode, KNLNodeConfig, MemoryMode

        n = 2_000_000_000
        node = KNLNode(KNLNodeConfig(mode=MemoryMode.CACHE))
        t_fun = node.run(funnelsort_plan(node, n)).elapsed
        t_imp = sort_variant_seconds("MLM-implicit", n, "random")
        t_gnu = sort_variant_seconds("GNU-cache", n, "random")
        assert t_imp < t_fun < t_gnu

    def test_funnelsort_beats_naive_oblivious(self):
        """Fewer cross-block rounds than the plain binary mergesort."""
        from repro.algorithms.funnelsort import funnelsort_plan
        from repro.algorithms.oblivious import oblivious_sort_plan
        from repro.simknl.node import KNLNode, KNLNodeConfig, MemoryMode

        n = 2_000_000_000
        node = KNLNode(KNLNodeConfig(mode=MemoryMode.CACHE))
        t_fun = node.run(funnelsort_plan(node, n)).elapsed
        t_obl = node.run(oblivious_sort_plan(node, n)).elapsed
        assert t_fun <= t_obl

    def test_invalid(self):
        from repro.algorithms.funnelsort import funnelsort_plan
        from repro.simknl.node import KNLNode, KNLNodeConfig, MemoryMode
        import pytest as _pytest
        from repro.errors import ConfigError

        node = KNLNode(KNLNodeConfig(mode=MemoryMode.CACHE))
        with _pytest.raises(ConfigError):
            funnelsort_plan(node, 0)

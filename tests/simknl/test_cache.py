"""Tests for the line-granularity direct-mapped MCDRAM cache model."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.simknl.cache import CacheStats, DirectMappedCache


class TestConstruction:
    def test_line_count(self):
        c = DirectMappedCache(capacity=1024, line_size=64)
        assert c.num_lines == 16
        assert c.usable_capacity == 1024

    def test_tag_overhead_shrinks_lines(self):
        c = DirectMappedCache(capacity=1024, line_size=64, tag_overhead=0.5)
        assert c.num_lines == 8
        assert c.usable_capacity == 512

    def test_rejects_capacity_below_line(self):
        with pytest.raises(ConfigError):
            DirectMappedCache(capacity=32, line_size=64)

    def test_rejects_bad_tag_overhead(self):
        with pytest.raises(ConfigError):
            DirectMappedCache(capacity=1024, tag_overhead=1.0)
        with pytest.raises(ConfigError):
            DirectMappedCache(capacity=1024, tag_overhead=-0.1)

    def test_rejects_bad_line_size(self):
        with pytest.raises(ConfigError):
            DirectMappedCache(capacity=1024, line_size=0)


class TestBasicBehaviour:
    def test_first_access_cold_misses(self):
        c = DirectMappedCache(capacity=1024)
        assert c.access(0) is False
        assert c.stats.cold_misses == 1

    def test_second_access_hits(self):
        c = DirectMappedCache(capacity=1024)
        c.access(0)
        assert c.access(0) is True
        assert c.stats.hits == 1

    def test_same_line_different_bytes_hit(self):
        c = DirectMappedCache(capacity=1024, line_size=64)
        c.access(0)
        assert c.access(63) is True

    def test_adjacent_line_misses(self):
        c = DirectMappedCache(capacity=1024, line_size=64)
        c.access(0)
        assert c.access(64) is False

    def test_direct_mapped_conflict(self):
        """Addresses capacity apart collide and evict each other."""
        c = DirectMappedCache(capacity=1024, line_size=64)
        c.access(0)
        c.access(1024)  # same set, different tag -> evicts line 0
        assert c.access(0) is False
        assert c.stats.conflict_misses == 1

    def test_negative_address_rejected(self):
        c = DirectMappedCache(capacity=1024)
        with pytest.raises(ConfigError):
            c.access(-1)


class TestMissClassification:
    def test_capacity_misses_when_working_set_exceeds(self):
        c = DirectMappedCache(capacity=1024, line_size=64)  # 16 lines
        c.access_range(0, 2048)  # 32 lines: all cold
        c.access_range(0, 2048)  # all re-misses, classified capacity
        assert c.stats.cold_misses == 32
        assert c.stats.capacity_misses == 32
        assert c.stats.conflict_misses == 0

    def test_conflict_vs_capacity(self):
        c = DirectMappedCache(capacity=1024, line_size=64)
        c.access(0)
        c.access(1024)
        c.access(0)  # conflict: only 2 distinct lines seen, fits
        assert c.stats.conflict_misses == 1
        assert c.stats.capacity_misses == 0


class TestWriteback:
    def test_clean_eviction_no_writeback(self):
        c = DirectMappedCache(capacity=1024, line_size=64)
        c.access(0, write=False)
        c.access(1024, write=False)
        assert c.stats.writebacks == 0

    def test_dirty_eviction_writes_back(self):
        c = DirectMappedCache(capacity=1024, line_size=64)
        c.access(0, write=True)
        c.access(1024, write=False)
        assert c.stats.writebacks == 1

    def test_write_hit_marks_dirty(self):
        c = DirectMappedCache(capacity=1024, line_size=64)
        c.access(0, write=False)
        c.access(0, write=True)  # hit, now dirty
        c.access(1024, write=False)
        assert c.stats.writebacks == 1

    def test_flush_writes_back_dirty_lines(self):
        c = DirectMappedCache(capacity=1024, line_size=64)
        c.access_range(0, 512, write=True)  # 8 dirty lines resident
        assert c.flush() == 8
        assert c.stats.writebacks == 8

    def test_flush_empties_cache(self):
        c = DirectMappedCache(capacity=1024, line_size=64)
        c.access(0)
        c.flush()
        c.access(0)
        # Second access after flush misses again (but not cold).
        assert c.stats.misses == 2


class TestRanges:
    def test_access_range_line_count(self):
        c = DirectMappedCache(capacity=4096, line_size=64)
        c.access_range(0, 1024)
        assert c.stats.accesses == 16

    def test_access_range_partial_lines(self):
        c = DirectMappedCache(capacity=4096, line_size=64)
        c.access_range(32, 64)  # straddles two lines
        assert c.stats.accesses == 2

    def test_empty_range_noop(self):
        c = DirectMappedCache(capacity=4096, line_size=64)
        c.access_range(0, 0)
        assert c.stats.accesses == 0

    def test_negative_range_rejected(self):
        c = DirectMappedCache(capacity=4096)
        with pytest.raises(ConfigError):
            c.access_range(0, -1)


class TestStatsAndTraffic:
    def test_hit_rate_empty(self):
        assert CacheStats().hit_rate == 0.0

    def test_hit_rate(self):
        c = DirectMappedCache(capacity=1024, line_size=64)
        c.access(0)
        c.access(0)
        c.access(0)
        assert c.stats.hit_rate == pytest.approx(2 / 3)

    def test_reset(self):
        c = DirectMappedCache(capacity=1024)
        c.access(0, write=True)
        c.reset()
        assert c.stats.accesses == 0
        assert c.access(0) is False
        assert c.stats.cold_misses == 1  # cold again after reset

    def test_traffic_accounting(self):
        c = DirectMappedCache(capacity=1024, line_size=64)
        c.access(0)          # miss: ddr 64, mcdram 128
        c.access(0)          # hit: mcdram 64
        ddr, mcdram = c.traffic()
        assert ddr == 64.0
        assert mcdram == 192.0

    def test_fitting_stream_reuses(self):
        """A working set that fits hits on every pass after the first."""
        c = DirectMappedCache(capacity=1024, line_size=64)
        c.access_range(0, 1024)
        first_misses = c.stats.misses
        c.access_range(0, 1024)
        c.access_range(0, 1024)
        assert c.stats.misses == first_misses
        assert c.stats.hits == 32


# ---- property-based ------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(
    addrs=st.lists(st.integers(min_value=0, max_value=10_000), max_size=200),
)
def test_hits_plus_misses_equals_accesses(addrs):
    c = DirectMappedCache(capacity=1024, line_size=64)
    for a in addrs:
        c.access(a)
    assert c.stats.hits + c.stats.misses == len(addrs)


@settings(max_examples=100, deadline=None)
@given(
    addrs=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=10_000), st.booleans()
        ),
        max_size=200,
    ),
)
def test_writebacks_never_exceed_dirtying_installs(addrs):
    """Every writeback corresponds to a previously installed dirty line."""
    c = DirectMappedCache(capacity=512, line_size=64)
    for a, w in addrs:
        c.access(a, write=w)
    c.flush()
    writes = sum(1 for _, w in addrs if w)
    assert c.stats.writebacks <= writes


@settings(max_examples=100, deadline=None)
@given(
    addrs=st.lists(st.integers(min_value=0, max_value=2_000), max_size=300),
)
def test_larger_cache_never_misses_more(addrs):
    """Miss count is monotone non-increasing in capacity (LRU-free
    direct mapping preserves this for nested power-of-two caches)."""
    small = DirectMappedCache(capacity=512, line_size=64)
    big = DirectMappedCache(capacity=4096, line_size=64)
    for a in addrs:
        small.access(a)
        big.access(a)
    assert big.stats.misses <= small.stats.misses


@settings(max_examples=50, deadline=None)
@given(nlines=st.integers(min_value=1, max_value=64))
def test_distinct_first_touches_are_cold(nlines):
    c = DirectMappedCache(capacity=64 * 128, line_size=64)
    for i in range(nlines):
        c.access(i * 64)
    assert c.stats.cold_misses == nlines
    assert c.stats.conflict_misses == 0


# ---- vectorized access_range == scalar access loop -----------------------

LINE = 64

ops_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=1 << 14),  # start
        st.integers(min_value=0, max_value=1 << 12),  # nbytes
        st.booleans(),  # write
    ),
    min_size=1,
    max_size=12,
)


def _scalar_range(cache: DirectMappedCache, start: int, nbytes: int, write: bool):
    """The per-line reference loop access_range replaces."""
    if nbytes <= 0:
        return
    first = start // LINE
    last = (start + nbytes - 1) // LINE
    for line in range(first, last + 1):
        cache.access(line * LINE, write=write)


def _state(cache: DirectMappedCache):
    s = cache.stats
    return (
        s.hits,
        s.misses,
        s.cold_misses,
        s.conflict_misses,
        s.capacity_misses,
        s.writebacks,
        cache.traffic(),
        tuple(cache._tags.tolist()),
        tuple(cache._dirty.tolist()),
    )


@settings(max_examples=200, deadline=None)
@given(ops=ops_strategy, capacity_lines=st.integers(min_value=1, max_value=32))
def test_access_range_matches_scalar_loop(ops, capacity_lines):
    fast = DirectMappedCache(capacity=capacity_lines * LINE, line_size=LINE)
    ref = DirectMappedCache(capacity=capacity_lines * LINE, line_size=LINE)
    for start, nbytes, write in ops:
        fast.access_range(start, nbytes, write=write)
        _scalar_range(ref, start, nbytes, write)
    assert _state(fast) == _state(ref)


@settings(max_examples=100, deadline=None)
@given(ops=ops_strategy)
def test_access_range_with_flush_matches(ops):
    fast = DirectMappedCache(capacity=8 * LINE, line_size=LINE)
    ref = DirectMappedCache(capacity=8 * LINE, line_size=LINE)
    for i, (start, nbytes, write) in enumerate(ops):
        fast.access_range(start, nbytes, write=write)
        _scalar_range(ref, start, nbytes, write)
        if i % 3 == 2:
            fast.flush()
            ref.flush()
    assert _state(fast) == _state(ref)

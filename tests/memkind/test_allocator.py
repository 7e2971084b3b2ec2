"""Tests for the first-fit heap and kinds."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AllocationError, ConfigError
from repro.memkind import (
    MEMKIND_DEFAULT,
    MEMKIND_HBW,
    MEMKIND_HBW_INTERLEAVE,
    MEMKIND_HBW_PREFERRED,
    Heap,
    Region,
)
from repro.memkind.kinds import Kind, Policy
from repro.simknl.node import KNLNode, KNLNodeConfig, MemoryMode
from repro.units import GiB, MiB


def flat_node() -> KNLNode:
    return KNLNode(KNLNodeConfig(mode=MemoryMode.FLAT))


def cache_node() -> KNLNode:
    return KNLNode(KNLNodeConfig(mode=MemoryMode.CACHE))


class TestRegion:
    def test_alloc_and_free_roundtrip(self):
        r = Region("ddr", 0, 1024)
        b = r.alloc(256)
        assert b.size == 256
        assert r.allocated == 256
        r.free(b)
        assert r.allocated == 0
        assert r.free_bytes == 1024

    def test_first_fit_reuses_gap(self):
        r = Region("ddr", 0, 1024)
        a = r.alloc(256)
        b = r.alloc(256)
        r.free(a)
        c = r.alloc(128)
        assert c.addr == a.addr  # reused the first gap
        r.free(b)
        r.free(c)

    def test_exhaustion_raises(self):
        r = Region("ddr", 0, 1024)
        r.alloc(1024)
        with pytest.raises(AllocationError):
            r.alloc(1)

    def test_fragmentation_blocks_large_alloc(self):
        r = Region("ddr", 0, 1024)
        blocks = [r.alloc(256) for _ in range(4)]
        r.free(blocks[0])
        r.free(blocks[2])
        # 512 free but split in two 256 holes.
        assert r.free_bytes == 512
        with pytest.raises(AllocationError):
            r.alloc(512)
        assert r.fragmentation() == pytest.approx(0.5)

    def test_coalescing_merges_neighbours(self):
        r = Region("ddr", 0, 1024)
        blocks = [r.alloc(256) for _ in range(4)]
        for b in blocks:
            r.free(b)
        assert r.largest_free == 1024

    def test_double_free_detected(self):
        r = Region("ddr", 0, 1024)
        b = r.alloc(256)
        r.free(b)
        with pytest.raises(AllocationError):
            r.free(b)

    def test_foreign_block_rejected(self):
        r = Region("ddr", 0, 1024)
        other = Region("mcdram", 0, 1024)
        b = other.alloc(64)
        with pytest.raises(AllocationError):
            r.free(b)

    def test_zero_alloc_rejected(self):
        r = Region("ddr", 0, 1024)
        with pytest.raises(AllocationError):
            r.alloc(0)

    def test_invalid_region(self):
        with pytest.raises(ConfigError):
            Region("ddr", 0, 0)
        with pytest.raises(ConfigError):
            Region("ddr", -1, 10)


class TestHeapKinds:
    def test_default_goes_to_ddr(self):
        h = Heap(flat_node())
        a = h.allocate(MiB, MEMKIND_DEFAULT)
        assert a.devices == {"ddr"}

    def test_hbw_goes_to_mcdram(self):
        h = Heap(flat_node())
        assert h.has_hbw()
        a = h.allocate(MiB, MEMKIND_HBW)
        assert a.devices == {"mcdram"}

    def test_hbw_bind_fails_when_full(self):
        h = Heap(flat_node())
        h.allocate(16 * GiB, MEMKIND_HBW)
        with pytest.raises(AllocationError):
            h.allocate(1, MEMKIND_HBW)

    def test_hbw_preferred_spills_to_ddr(self):
        """The numactl behaviour Li et al. used: fill MCDRAM, then DDR."""
        h = Heap(flat_node())
        h.allocate(16 * GiB, MEMKIND_HBW_PREFERRED)
        spill = h.allocate(GiB, MEMKIND_HBW_PREFERRED)
        assert spill.devices == {"ddr"}

    def test_interleave_stripes_devices(self):
        h = Heap(flat_node(), page=4096)
        a = h.allocate(4096 * 4, MEMKIND_HBW_INTERLEAVE)
        assert a.devices == {"ddr", "mcdram"}
        assert a.bytes_on("mcdram") == 2 * 4096
        assert a.bytes_on("ddr") == 2 * 4096

    def test_interleave_partial_last_page(self):
        h = Heap(flat_node(), page=4096)
        a = h.allocate(4096 + 100, MEMKIND_HBW_INTERLEAVE)
        assert a.size == 4096 + 100
        assert a.bytes_on("mcdram") == 4096
        assert a.bytes_on("ddr") == 100

    def test_cache_mode_has_no_hbw(self):
        h = Heap(cache_node())
        assert not h.has_hbw()
        with pytest.raises(AllocationError):
            h.allocate(MiB, MEMKIND_HBW)

    def test_cache_mode_preferred_falls_back(self):
        h = Heap(cache_node())
        a = h.allocate(MiB, MEMKIND_HBW_PREFERRED)
        assert a.devices == {"ddr"}

    def test_cache_mode_interleave_all_ddr(self):
        h = Heap(cache_node())
        a = h.allocate(MiB, MEMKIND_HBW_INTERLEAVE)
        assert a.devices == {"ddr"}

    def test_hybrid_mode_partial_hbw(self):
        node = KNLNode(
            KNLNodeConfig(mode=MemoryMode.HYBRID, hybrid_cache_fraction=0.5)
        )
        h = Heap(node)
        h.allocate(8 * GiB, MEMKIND_HBW)  # exactly the flat half
        with pytest.raises(AllocationError):
            h.allocate(1, MEMKIND_HBW)

    def test_free_and_usage(self):
        h = Heap(flat_node())
        a = h.allocate(MiB, MEMKIND_HBW)
        assert h.usage()["mcdram"] == MiB
        h.free(a)
        assert h.usage()["mcdram"] == 0

    def test_double_free_allocation(self):
        h = Heap(flat_node())
        a = h.allocate(MiB, MEMKIND_HBW)
        h.free(a)
        with pytest.raises(AllocationError):
            h.free(a)

    def test_interleave_rollback_on_failure(self):
        """A failed interleave allocation frees its partial blocks."""
        node = KNLNode(
            KNLNodeConfig(mode=MemoryMode.FLAT, ddr_capacity=8192.0)
        )
        h = Heap(node, page=4096)
        before = h.usage()
        with pytest.raises(AllocationError):
            # Needs 17 GiB total; DDR side (half) exceeds 8 KiB DDR.
            h.allocate(34 * GiB, MEMKIND_HBW_INTERLEAVE)
        assert h.usage() == before

    def test_addresses_disjoint_across_devices(self):
        h = Heap(flat_node())
        a = h.allocate(MiB, MEMKIND_DEFAULT)
        b = h.allocate(MiB, MEMKIND_HBW)
        assert a.blocks[0].addr < Heap.MCDRAM_BASE <= b.blocks[0].addr

    def test_invalid_size(self):
        h = Heap(flat_node())
        with pytest.raises(AllocationError):
            h.allocate(0, MEMKIND_DEFAULT)

    def test_unknown_policy_kind(self):
        h = Heap(flat_node())
        bad = Kind("X", "mcdram", Policy.INTERLEAVE, fallback=None)
        with pytest.raises(ConfigError):
            h.allocate(MiB, bad)


# ---- property-based ------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.booleans(), st.integers(min_value=1, max_value=2048)),
        max_size=60,
    )
)
def test_region_conservation(ops):
    """allocated + free == size at every step; frees always succeed."""
    r = Region("ddr", 0, 1 << 20)
    live = []
    for is_alloc, size in ops:
        if is_alloc or not live:
            try:
                live.append(r.alloc(size))
            except AllocationError:
                pass
        else:
            r.free(live.pop())
        assert r.allocated + r.free_bytes == 1 << 20
    for b in live:
        r.free(b)
    assert r.free_bytes == 1 << 20
    assert r.largest_free == 1 << 20


@settings(max_examples=100, deadline=None)
@given(
    sizes=st.lists(st.integers(min_value=1, max_value=1 << 16), max_size=30)
)
def test_allocations_never_overlap(sizes):
    r = Region("ddr", 0, 1 << 22)
    blocks = []
    for s in sizes:
        try:
            blocks.append(r.alloc(s))
        except AllocationError:
            break
    spans = sorted((b.addr, b.addr + b.size) for b in blocks)
    for (a0, a1), (b0, _b1) in zip(spans, spans[1:]):
        assert a1 <= b0


@settings(max_examples=50, deadline=None)
@given(size=st.integers(min_value=1, max_value=1 << 24))
def test_interleave_split_is_balanced(size):
    """Interleaved allocations put each device within one page of half."""
    h = Heap(flat_node(), page=4096)
    a = h.allocate(size, MEMKIND_HBW_INTERLEAVE)
    assert abs(a.bytes_on("mcdram") - a.bytes_on("ddr")) <= 4096
    assert a.size == size


class TestRegionFaultHardening:
    def test_non_positive_size_rejected(self):
        r = Region("ddr", 0, 1024)
        with pytest.raises(AllocationError, match="must be positive"):
            r.alloc(0)
        with pytest.raises(AllocationError, match="must be positive"):
            r.alloc(-8)
        assert r.free_bytes == 1024

    def test_double_free_same_block_raises(self):
        r = Region("ddr", 0, 1024)
        b = r.alloc(256)
        r.free(b)
        with pytest.raises(AllocationError, match="double free"):
            r.free(b)
        # Free list stays consistent: the full region is reusable.
        assert r.free_bytes == 1024
        assert r.largest_free == 1024

    def test_double_free_after_coalescing_raises(self):
        """Re-freeing a block whose extent was coalesced into a larger
        free extent must be caught (the overlap probes alone miss it)."""
        r = Region("ddr", 0, 1024)
        a = r.alloc(256)
        b = r.alloc(256)
        r.free(a)
        r.free(b)  # coalesces with a's extent
        with pytest.raises(AllocationError, match="double free"):
            r.free(a)
        with pytest.raises(AllocationError, match="double free"):
            r.free(b)
        assert r.free_bytes == 1024

    def test_foreign_block_rejected(self):
        r = Region("ddr", 0, 1024)
        r.alloc(256)
        from repro.memkind.allocator import Block

        with pytest.raises(AllocationError, match="double free|foreign"):
            r.free(Block("ddr", 128, 64))

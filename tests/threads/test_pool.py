"""Tests for thread pools and the three-pool split."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.simknl.node import KNLNode
from repro.threads.pool import PoolSet, ThreadPool
from repro.units import GB


@pytest.fixture
def node():
    return KNLNode()


class TestThreadPool:
    def test_size(self):
        assert ThreadPool("compute", (0, 1, 2)).size == 3

    def test_flow_builder(self):
        p = ThreadPool("copy-in", tuple(range(8)))
        f = p.flow(4.8 * GB, {"ddr": 1.0, "mcdram": 1.0}, 14.9 * GB)
        assert f.threads == 8
        assert f.name == "copy-in"
        assert f.rate_cap == pytest.approx(8 * 4.8 * GB)

    def test_flow_custom_name(self):
        p = ThreadPool("copy-in", (0,))
        assert p.flow(1.0, {"ddr": 1.0}, 1.0, name="x").name == "x"


class TestPoolSetSplit:
    def test_basic_split(self, node):
        ps = PoolSet.split(node, compute=240, copy_in=16)
        assert ps.compute.size == 240
        assert ps.copy_in.size == 16
        assert ps.copy_out.size == 16  # symmetric default
        assert ps.total == 272
        assert ps.copy_threads == 32

    def test_asymmetric_split(self, node):
        ps = PoolSet.split(node, compute=100, copy_in=8, copy_out=4)
        assert ps.copy_out.size == 4
        assert ps.copy_threads == 12

    def test_pools_disjoint(self, node):
        ps = PoolSet.split(node, compute=100, copy_in=50, copy_out=50)
        all_threads = (
            set(ps.compute.threads)
            | set(ps.copy_in.threads)
            | set(ps.copy_out.threads)
        )
        assert len(all_threads) == 200

    def test_overflow_rejected(self, node):
        with pytest.raises(ConfigError):
            PoolSet.split(node, compute=260, copy_in=16)

    def test_negative_rejected(self, node):
        with pytest.raises(ConfigError):
            PoolSet.split(node, compute=-1, copy_in=1)

    def test_compute_only(self, node):
        ps = PoolSet.compute_only(node)
        assert ps.compute.size == 272
        assert ps.copy_threads == 0

    def test_compute_only_partial(self, node):
        ps = PoolSet.compute_only(node, threads=64)
        assert ps.compute.size == 64

    def test_overlapping_pools_rejected(self):
        with pytest.raises(ConfigError):
            PoolSet(
                compute=ThreadPool("compute", (0, 1)),
                copy_in=ThreadPool("copy-in", (1, 2)),
                copy_out=ThreadPool("copy-out", ()),
            )


    def test_overlap_message_names_the_shared_ids(self):
        with pytest.raises(ConfigError, match=r"'copy-in' reuses threads \[1\]"):
            PoolSet(
                compute=ThreadPool("compute", (0, 1)),
                copy_in=ThreadPool("copy-in", (1, 2)),
                copy_out=ThreadPool("copy-out", ()),
            )

    def test_repeated_thread_within_a_pool_rejected(self):
        """One hardware thread listed twice is not a pool of two."""
        with pytest.raises(ConfigError, match="'compute' repeats thread 0"):
            PoolSet(
                ThreadPool("compute", (0, 0)),
                ThreadPool("copy-in", ()),
                ThreadPool("copy-out", ()),
            )
        with pytest.raises(ConfigError, match="'copy-out' repeats thread 7"):
            PoolSet(
                ThreadPool("compute", (0, 1)),
                ThreadPool("copy-in", (2,)),
                ThreadPool("copy-out", (7, 3, 7)),
            )

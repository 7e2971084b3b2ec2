"""Tests for the three-pool thread split."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.simknl.node import KNLNode, KNLNodeConfig
from repro.threads.pool import PoolSet


@pytest.fixture
def node():
    return KNLNode()


class TestPoolSetSplit:
    def test_basic_split(self, node):
        ps = PoolSet.split(node, compute=240, copy_in=16)
        assert ps.compute == 240
        assert ps.copy_in == 16
        assert ps.copy_out == 16  # symmetric default
        assert ps.total == 272
        assert ps.copy_threads == 32

    def test_asymmetric_split(self, node):
        ps = PoolSet.split(node, compute=100, copy_in=8, copy_out=4)
        assert ps.copy_out == 4
        assert ps.copy_threads == 12

    def test_overflow_rejected(self, node):
        with pytest.raises(ConfigError):
            PoolSet.split(node, compute=260, copy_in=16)

    def test_negative_rejected(self, node):
        with pytest.raises(ConfigError):
            PoolSet.split(node, compute=-1, copy_in=1)

    def test_compute_only(self, node):
        ps = PoolSet.compute_only(node)
        assert ps.compute == 272
        assert ps.copy_threads == 0

    def test_compute_only_partial(self, node):
        ps = PoolSet.compute_only(node, threads=64)
        assert ps.compute == 64

    @pytest.mark.parametrize("cores", [1, 5, 67, 68])
    def test_node_threads_are_the_bound(self, cores):
        """A split may use every hardware thread of the node, and not
        one more, for even and odd core counts alike."""
        node = KNLNode(KNLNodeConfig(cores=cores))
        total = node.total_threads
        ps = PoolSet.split(node, compute=total - 2, copy_in=1)
        assert ps.total == total
        with pytest.raises(ConfigError, match=f"{total + 1} threads requested"):
            PoolSet.split(node, compute=total - 1, copy_in=1)

"""Tests for thread-to-core affinity policies."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.simknl.node import KNLNode, KNLNodeConfig
from repro.simknl.topology import KNLTopology
from repro.threads.affinity import AffinityPolicy, assign_threads, cores_used


@pytest.fixture
def topo():
    return KNLTopology()


class TestCompact:
    def test_fills_smt_first(self, topo):
        slots = assign_threads(topo, 8, AffinityPolicy.COMPACT)
        assert slots == list(range(8))
        assert cores_used(topo, slots) == {0, 1}

    def test_full_machine(self, topo):
        slots = assign_threads(topo, 272, AffinityPolicy.COMPACT)
        assert len(set(slots)) == 272


class TestScatter:
    def test_one_thread_per_core_first(self, topo):
        slots = assign_threads(topo, 68, AffinityPolicy.SCATTER)
        assert len(cores_used(topo, slots)) == 68

    def test_wraps_to_smt_siblings(self, topo):
        slots = assign_threads(topo, 70, AffinityPolicy.SCATTER)
        assert len(cores_used(topo, slots)) == 68
        # Threads 68, 69 are second SMT slots of cores 0 and 1.
        assert slots[68] == 1
        assert slots[69] == 5

    def test_small_count_distinct_cores(self, topo):
        slots = assign_threads(topo, 16, AffinityPolicy.SCATTER)
        assert len(cores_used(topo, slots)) == 16

    def test_full_machine_unique(self, topo):
        slots = assign_threads(topo, 272, AffinityPolicy.SCATTER)
        assert len(set(slots)) == 272

    @pytest.mark.parametrize("cores", [1, 5, 68])
    def test_matches_round_robin_walk(self, cores):
        """Thread ``i`` lands on core ``i % cores``, SMT slot
        ``i // cores``, for every count the node holds."""
        topo = KNLNode(KNLNodeConfig(cores=cores)).topology
        spc = topo.threads_per_core
        for count in range(topo.num_threads + 1):
            want = [(i % cores) * spc + i // cores for i in range(count)]
            assert assign_threads(topo, count, AffinityPolicy.SCATTER) == want


class TestValidation:
    def test_zero_threads(self, topo):
        assert assign_threads(topo, 0) == []

    def test_negative_rejected(self, topo):
        with pytest.raises(ConfigError):
            assign_threads(topo, -1)

    def test_too_many_rejected(self, topo):
        with pytest.raises(ConfigError):
            assign_threads(topo, 273)


@pytest.mark.parametrize("cores", [1, 5, 67, 68])
def test_node_slots_stay_within_its_threads(cores):
    # An odd core count leaves the last tile half populated; no policy
    # may place a thread on the missing core's SMT slots.
    cfg = KNLNodeConfig(cores=cores)
    node = KNLNode(cfg)
    assert node.topology.num_cores == cfg.cores
    assert node.topology.num_threads == node.total_threads
    for policy in AffinityPolicy:
        for count in range(node.total_threads + 1):
            slots = assign_threads(node.topology, count, policy)
            assert all(s < node.total_threads for s in slots)


@settings(max_examples=60, deadline=None)
@given(
    count=st.integers(min_value=0, max_value=272),
    policy=st.sampled_from(list(AffinityPolicy)),
)
def test_assignments_are_unique_and_valid(count, policy):
    topo = KNLTopology()
    slots = assign_threads(topo, count, policy)
    assert len(slots) == count
    assert len(set(slots)) == count
    for s in slots:
        assert 0 <= s < topo.num_threads


@settings(max_examples=60, deadline=None)
@given(count=st.integers(min_value=1, max_value=272))
def test_scatter_never_uses_fewer_cores_than_compact(count):
    topo = KNLTopology()
    sc = cores_used(topo, assign_threads(topo, count, AffinityPolicy.SCATTER))
    co = cores_used(topo, assign_threads(topo, count, AffinityPolicy.COMPACT))
    assert len(sc) >= len(co)

"""Tests for the tile/mesh topology model."""

from __future__ import annotations

from collections import deque

import pytest

from repro.errors import ConfigError
from repro.simknl.node import KNLNode
from repro.simknl.topology import ClusterMode, KNLTopology, Tile
from repro.threads.pool import PoolSet


def _bfs_hops(rows, cols, src, dst):
    """Reference oracle: shortest hop count on a rows x cols grid."""
    seen = {src: 0}
    queue = deque([src])
    while queue:
        r, c = node = queue.popleft()
        if node == dst:
            return seen[node]
        for nxt in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
            if 0 <= nxt[0] < rows and 0 <= nxt[1] < cols and nxt not in seen:
                seen[nxt] = seen[node] + 1
                queue.append(nxt)
    raise AssertionError(f"{dst} unreachable from {src}")


class TestDefaults:
    def test_knl_7250_counts(self):
        t = KNLTopology()
        assert t.num_cores == 68
        assert t.num_threads == 272
        assert len(t.tiles) == 34

    def test_tiles_have_two_cores(self):
        t = KNLTopology()
        for tile in t.tiles:
            assert len(tile.cores) == 2

    def test_cores_are_dense_and_unique(self):
        t = KNLTopology()
        all_cores = [c for tile in t.tiles for c in tile.cores]
        assert sorted(all_cores) == list(range(68))

    def test_tile_positions_within_grid(self):
        t = KNLTopology()
        for tile in t.tiles:
            r, c = tile.position
            assert 0 <= r < t.rows
            assert 0 <= c < t.cols


class TestValidation:
    def test_rejects_bad_dimensions(self):
        with pytest.raises(ConfigError):
            KNLTopology(rows=0)
        with pytest.raises(ConfigError):
            KNLTopology(cols=-1)

    def test_rejects_too_many_active_tiles(self):
        with pytest.raises(ConfigError):
            KNLTopology(rows=2, cols=2, active_tiles=5)

    def test_rejects_zero_active_tiles(self):
        with pytest.raises(ConfigError):
            KNLTopology(active_tiles=0)


class TestLookup:
    def test_tile_of_core(self):
        t = KNLTopology()
        assert t.tile_of_core(0).tile_id == 0
        assert t.tile_of_core(1).tile_id == 0
        assert t.tile_of_core(2).tile_id == 1
        assert t.tile_of_core(67).tile_id == 33

    def test_tile_of_core_out_of_range(self):
        t = KNLTopology()
        with pytest.raises(ConfigError):
            t.tile_of_core(68)
        with pytest.raises(ConfigError):
            t.tile_of_core(-1)

    def test_core_of_thread_compact(self):
        t = KNLTopology()
        assert t.core_of_thread(0) == 0
        assert t.core_of_thread(3) == 0
        assert t.core_of_thread(4) == 1
        assert t.core_of_thread(271) == 67

    def test_core_of_thread_out_of_range(self):
        t = KNLTopology()
        with pytest.raises(ConfigError):
            t.core_of_thread(272)


class TestMesh:
    def test_distance_self_is_zero(self):
        t = KNLTopology()
        assert t.mesh_distance(0, 0) == 0

    def test_distance_is_manhattan_on_grid(self):
        t = KNLTopology()
        a, b = t.tiles[0], t.tiles[10]
        expected = abs(a.position[0] - b.position[0]) + abs(
            a.position[1] - b.position[1]
        )
        assert t.mesh_distance(0, 10) == expected

    def test_distance_symmetric(self):
        t = KNLTopology()
        assert t.mesh_distance(3, 20) == t.mesh_distance(20, 3)

    def test_mean_distance_positive(self):
        t = KNLTopology()
        assert t.mean_mesh_distance() > 0

    def test_mean_distance_single_tile(self):
        t = KNLTopology(rows=1, cols=1, active_tiles=1)
        assert t.mean_mesh_distance() == 0.0


class TestTile:
    def test_default_l2(self):
        tile = Tile(tile_id=0, position=(0, 0), cores=(0, 1))
        assert tile.l2_bytes == 1 << 20


class TestClusterModes:
    def test_default_is_quadrant(self):
        assert KNLTopology().cluster_mode is ClusterMode.QUADRANT

    def test_quadrants_partition_tiles(self):
        t = KNLTopology()
        quads = [t.quadrant_of_tile(i) for i in range(len(t.tiles))]
        assert set(quads) == {0, 1, 2, 3}
        # Each quadrant holds a reasonable share of the 34 tiles.
        for q in range(4):
            assert 4 <= quads.count(q) <= 14

    def test_quadrant_of_tile_range(self):
        t = KNLTopology()
        with pytest.raises(ConfigError):
            t.quadrant_of_tile(99)

    def test_all_to_all_costs_more_hops(self):
        a2a = KNLTopology(cluster_mode=ClusterMode.ALL_TO_ALL)
        quad = KNLTopology(cluster_mode=ClusterMode.QUADRANT)
        for tile in (0, 10, 33):
            assert a2a.memory_access_hops(tile) > quad.memory_access_hops(tile)

    def test_snc4_matches_quadrant_hops(self):
        snc = KNLTopology(cluster_mode=ClusterMode.SNC4)
        quad = KNLTopology(cluster_mode=ClusterMode.QUADRANT)
        assert snc.memory_access_hops(0) == quad.memory_access_hops(0)

    def test_snc4_local_bandwidth_share(self):
        assert KNLTopology(
            cluster_mode=ClusterMode.SNC4
        ).snc_local_bandwidth_share() == 0.25
        assert KNLTopology(
            cluster_mode=ClusterMode.QUADRANT
        ).snc_local_bandwidth_share() == 1.0

    def test_hops_positive(self):
        t = KNLTopology()
        assert t.memory_access_hops(5) > 0


#: Default 6x7 / 34-tile values, captured from the networkx
#: shortest-path implementation this closed form replaced.
_MEAN_DISTANCE = 3.93048128342246
_A2A_HOPS = 7.86096256684492
_QUADRANT_HOPS = (
    [14 / 3] * 4 + [4.0] * 3 + [14 / 3] * 4 + [4.0] * 3 + [14 / 3] * 4
    + [4.0] * 7 + [3.2] * 3 + [4.0] * 4 + [3.2] * 2
)


class TestMeshOracle:
    @pytest.mark.parametrize(
        "rows, cols, active",
        [(1, 9, 9), (9, 1, 9), (6, 7, 34), (6, 7, 42), (4, 4, 16), (3, 5, 11)],
    )
    def test_distance_matches_bfs(self, rows, cols, active):
        t = KNLTopology(rows=rows, cols=cols, active_tiles=active)
        for a in range(active):
            for b in range(active):
                assert t.mesh_distance(a, b) == _bfs_hops(
                    rows, cols, t.tiles[a].position, t.tiles[b].position
                )

    def test_positions_are_row_major(self):
        t = KNLTopology()
        assert [tile.position for tile in t.tiles] == [
            (r, c) for r in range(6) for c in range(7)
        ][:34]

    @pytest.mark.parametrize("mode", list(ClusterMode))
    def test_mean_distance_pinned(self, mode):
        assert KNLTopology(cluster_mode=mode).mean_mesh_distance() == (
            _MEAN_DISTANCE
        )

    @pytest.mark.parametrize("mode", list(ClusterMode))
    def test_memory_access_hops_pinned(self, mode):
        t = KNLTopology(cluster_mode=mode)
        expected = (
            [_A2A_HOPS] * 34 if mode is ClusterMode.ALL_TO_ALL
            else _QUADRANT_HOPS
        )
        assert [t.memory_access_hops(i) for i in range(34)] == expected


def _eager_tiles(cols, active_tiles, cores_per_tile):
    """The tile list as the constructor used to build it up front."""
    tiles = []
    core = 0
    for tid in range(active_tiles):
        cores = tuple(range(core, core + cores_per_tile))
        core += cores_per_tile
        tiles.append(Tile(tile_id=tid, position=divmod(tid, cols), cores=cores))
    return tiles


class TestLazyGrid:
    def test_thread_placement_builds_no_tiles(self):
        node = KNLNode()
        PoolSet.split(node, compute=64, copy_in=8)
        assert "tiles" not in vars(node.topology)

    @pytest.mark.parametrize(
        "rows, cols, active", [(6, 7, 34), (1, 1, 1), (2, 2, 3)]
    )
    @pytest.mark.parametrize("cores_per_tile", [1, 2])
    def test_tiles_match_eager_build(self, rows, cols, active, cores_per_tile):
        t = KNLTopology(
            rows=rows, cols=cols, active_tiles=active,
            cores_per_tile=cores_per_tile,
        )
        assert t.tiles == _eager_tiles(cols, active, cores_per_tile)
        assert t.tiles is t.tiles
        assert t.num_cores == len(t.tiles) * cores_per_tile
        assert t.num_threads == t.num_cores * t.threads_per_core

    def test_partial_last_tile(self):
        t = KNLTopology(active_tiles=3, cores=5)
        assert t.num_cores == 5
        assert t.num_threads == 20
        assert [tile.cores for tile in t.tiles] == [(0, 1), (2, 3), (4,)]
        assert t.tile_of_core(4).tile_id == 2
        with pytest.raises(ConfigError):
            t.tile_of_core(5)

    @pytest.mark.parametrize("cores", [0, 4, 7])
    def test_rejects_cores_outside_the_tiles(self, cores):
        with pytest.raises(ConfigError):
            KNLTopology(active_tiles=3, cores=cores)

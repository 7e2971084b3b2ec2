"""KNL tile/mesh topology.

The Xeon Phi 7250 arranges cores in *tiles* (two cores sharing a 1 MB
L2) connected by a 2D mesh network-on-chip; MCDRAM EDC controllers sit
on the mesh edges and DDR controllers on two mesh columns. We model a
rows x cols grid (default 6 x 7 = 42 slots, 34 tiles active → 68
cores), expose core/thread enumeration and affinity helpers, and
compute mesh-hop distances as XY-routing (Manhattan) path lengths —
on a full grid that is exactly the shortest-path hop count. The mesh
is not a flow resource: the paper treats NoC contention as a
secondary effect of over-provisioning copy threads.

Models the Xeon Phi 7250 node of Section 1 with the Table 2 device
parameters attached.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.errors import ConfigError
from repro.units import MiB


@dataclass(frozen=True)
class Tile:
    """One KNL tile: two cores sharing an L2 slice.

    Attributes
    ----------
    tile_id:
        Dense index among *active* tiles.
    position:
        (row, col) grid coordinate on the mesh.
    cores:
        Global core ids hosted by this tile.
    l2_bytes:
        Shared L2 capacity.
    """

    tile_id: int
    position: tuple[int, int]
    cores: tuple[int, ...]
    l2_bytes: int = MiB


class KNLTopology:
    """Tile grid, core/thread enumeration, and mesh distances.

    Parameters
    ----------
    rows, cols:
        Mesh grid dimensions.
    active_tiles:
        Number of tiles populated with cores (7250: 34).
    cores_per_tile:
        Cores per tile (KNL: 2).
    threads_per_core:
        SMT ways per core (KNL: 4).
    cores:
        Total active cores (``num_cores``); defaults to
        ``active_tiles * cores_per_tile``. A smaller count leaves the
        last tile partially populated.
    """

    def __init__(
        self,
        rows: int = 6,
        cols: int = 7,
        active_tiles: int = 34,
        cores_per_tile: int = 2,
        threads_per_core: int = 4,
        cores: int | None = None,
    ) -> None:
        if rows <= 0 or cols <= 0:
            raise ConfigError("mesh dimensions must be positive")
        if active_tiles <= 0 or active_tiles > rows * cols:
            raise ConfigError(
                f"active_tiles must be in 1..{rows * cols}, got {active_tiles}"
            )
        if cores_per_tile <= 0 or threads_per_core <= 0:
            raise ConfigError("cores/threads per tile must be positive")
        full = active_tiles * cores_per_tile
        if cores is None:
            cores = full
        elif not full - cores_per_tile < cores <= full:
            raise ConfigError(
                f"{active_tiles} tiles of {cores_per_tile} cores host "
                f"{full - cores_per_tile + 1}..{full} cores, got {cores}"
            )
        self.rows = rows
        self.cols = cols
        self.active_tiles = active_tiles
        self.cores_per_tile = cores_per_tile
        self.threads_per_core = threads_per_core
        self.num_cores = cores

    @cached_property
    def tiles(self) -> list[Tile]:
        """Active tiles, filling the grid in row-major order; built on
        first access, since thread placement needs only the counts."""
        cpt, last = self.cores_per_tile, self.num_cores
        return [
            Tile(
                tile_id=tid,
                position=divmod(tid, self.cols),
                cores=tuple(range(tid * cpt, min(tid * cpt + cpt, last))),
            )
            for tid in range(self.active_tiles)
        ]

    @property
    def num_threads(self) -> int:
        """Total hardware threads (cores x SMT ways)."""
        return self.num_cores * self.threads_per_core

    def tile_of_core(self, core: int) -> Tile:
        """The tile hosting global core id ``core``."""
        if not 0 <= core < self.num_cores:
            raise ConfigError(
                f"core {core} out of range 0..{self.num_cores - 1}"
            )
        return self.tiles[core // self.cores_per_tile]

    def core_of_thread(self, thread: int) -> int:
        """Global core id of hardware thread ``thread`` (compact order)."""
        if not 0 <= thread < self.num_threads:
            raise ConfigError(
                f"thread {thread} out of range 0..{self.num_threads - 1}"
            )
        return thread // self.threads_per_core

    def mesh_distance(self, tile_a: int, tile_b: int) -> int:
        """Mesh hop count between two tiles (XY-routing path length)."""
        ra, ca = self.tiles[tile_a].position
        rb, cb = self.tiles[tile_b].position
        return abs(ra - rb) + abs(ca - cb)

    def mean_mesh_distance(self) -> float:
        """Average hop count over all active tile pairs."""
        n = self.active_tiles
        if n == 1:
            return 0.0
        total = 0
        for i in range(n):
            for j in range(i + 1, n):
                total += self.mesh_distance(i, j)
        return total / (n * (n - 1) / 2)

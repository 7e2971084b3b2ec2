"""The assembled KNL node: devices + topology + boot-time memory mode.

The BIOS-selected memory mode determines how the 16 GB of MCDRAM is
exposed:

* ``FLAT`` — all MCDRAM is addressable scratchpad (NUMA node 1);
* ``CACHE`` — all MCDRAM is a direct-mapped memory-side cache of DDR;
* ``HYBRID`` — a fraction is cache, the rest addressable (KNL supported
  25 % or 50 % cache splits).

The paper's fourth usage mode, *implicit cache*, is not a BIOS mode —
it is a software discipline (run a chunked algorithm while booted in
``CACHE``), so it lives in :mod:`repro.core.modes`, not here.

A booted node is a pure function of its frozen :class:`KNLNodeConfig`:
its devices are frozen and nothing changes it after boot. :func:`boot`
therefore boots each configuration once per process and hands every
caller the same node.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

from repro.errors import ConfigError
from repro.simknl.cache_analytic import StreamingCacheModel
from repro.simknl.devices import MemoryDevice, ddr4_device, mcdram_device
from repro.simknl.engine import Engine, Plan, RunResult
from repro.simknl.flows import Resource
from repro.simknl.topology import KNLTopology
from repro.units import CACHE_LINE, GB, GiB


class MemoryMode(enum.Enum):
    """BIOS memory modes of the KNL MCDRAM."""

    FLAT = "flat"
    CACHE = "cache"
    HYBRID = "hybrid"


@dataclass(frozen=True)
class KNLNodeConfig:
    """Hardware configuration of a simulated KNL node.

    Defaults describe the paper's Xeon Phi 7250 testbed with the
    bandwidths of Table 2.
    """

    cores: int = 68
    threads_per_core: int = 4
    ddr_bandwidth: float = 90 * GB
    ddr_capacity: float = 96 * GiB
    ddr_latency: float = 130e-9
    mcdram_bandwidth: float = 400 * GB
    mcdram_capacity: float = 16 * GiB
    mcdram_latency: float = 150e-9
    mode: MemoryMode = MemoryMode.CACHE
    #: Fraction of MCDRAM acting as cache in HYBRID mode (0.25 or 0.5
    #: on real hardware; any (0,1) value accepted here).
    hybrid_cache_fraction: float = 0.5
    #: Fraction of the cache portion lost to tag storage.
    tag_overhead: float = 0.0
    cache_line: int = CACHE_LINE

    def __post_init__(self) -> None:
        if self.cores <= 0 or self.threads_per_core <= 0:
            raise ConfigError("cores and threads_per_core must be positive")
        if self.mode is MemoryMode.HYBRID:
            if not 0.0 < self.hybrid_cache_fraction < 1.0:
                raise ConfigError(
                    "hybrid_cache_fraction must be in (0, 1), got "
                    f"{self.hybrid_cache_fraction}"
                )
        if not 0.0 <= self.tag_overhead < 1.0:
            raise ConfigError("tag_overhead must be in [0, 1)")

    @property
    def total_threads(self) -> int:
        """Hardware threads available on the node."""
        return self.cores * self.threads_per_core

    def with_mode(
        self, mode: MemoryMode, hybrid_cache_fraction: float | None = None
    ) -> "KNLNodeConfig":
        """A copy of this config booted into ``mode``."""
        kwargs = {"mode": mode}
        if hybrid_cache_fraction is not None:
            kwargs["hybrid_cache_fraction"] = hybrid_cache_fraction
        return replace(self, **kwargs)


class KNLNode:
    """A booted KNL node ready to execute flow plans.

    Read-only after boot; sweep cells share one node per configuration
    through :func:`boot`.

    Attributes
    ----------
    config:
        The immutable hardware/mode configuration.
    ddr, mcdram:
        The two memory devices.
    cache_model:
        Analytic model of the MCDRAM cache portion, or None in FLAT
        mode (where no cache exists).
    topology:
        Tile/mesh structure consistent with the core count.
    """

    def __init__(self, config: KNLNodeConfig | None = None) -> None:
        self.config = config or KNLNodeConfig()
        cfg = self.config
        self.ddr: MemoryDevice = ddr4_device(
            bandwidth=cfg.ddr_bandwidth,
            capacity=cfg.ddr_capacity,
            latency=cfg.ddr_latency,
        )
        self.mcdram: MemoryDevice = mcdram_device(
            bandwidth=cfg.mcdram_bandwidth,
            capacity=cfg.mcdram_capacity,
            latency=cfg.mcdram_latency,
        )
        cores_per_tile = 2
        active_tiles = -(-cfg.cores // cores_per_tile)
        rows = 6
        self.topology = KNLTopology(
            rows=rows,
            cols=-(-active_tiles // rows),
            active_tiles=active_tiles,
            cores_per_tile=cores_per_tile,
            threads_per_core=cfg.threads_per_core,
            cores=cfg.cores,
        )
        if self.cache_capacity > 0:
            self.cache_model: StreamingCacheModel | None = StreamingCacheModel(
                capacity=self.cache_capacity,
                line_size=cfg.cache_line,
                tag_overhead=cfg.tag_overhead,
            )
        else:
            self.cache_model = None
        self._resources = (self.ddr.resource(), self.mcdram.resource())

    # ---- capacity views -------------------------------------------------

    @property
    def mode(self) -> MemoryMode:
        """The boot-time memory mode."""
        return self.config.mode

    @property
    def cache_capacity(self) -> float:
        """MCDRAM bytes acting as hardware cache in the current mode."""
        cfg = self.config
        if cfg.mode is MemoryMode.CACHE:
            return cfg.mcdram_capacity
        if cfg.mode is MemoryMode.HYBRID:
            return cfg.mcdram_capacity * cfg.hybrid_cache_fraction
        return 0.0

    @property
    def addressable_mcdram(self) -> float:
        """MCDRAM bytes addressable as scratchpad in the current mode."""
        return self.config.mcdram_capacity - self.cache_capacity

    @property
    def total_threads(self) -> int:
        """Hardware threads available on the node."""
        return self.config.total_threads

    # ---- execution ------------------------------------------------------

    def resources(self) -> tuple[Resource, ...]:
        """Bandwidth resources contributed by this node (one tuple per
        node, built at boot, so cells on one node share it)."""
        return self._resources

    def engine(self, record_events: bool = False) -> Engine:
        """A fresh engine over this node's resources."""
        return Engine(self.resources(), record_events=record_events)

    def run(self, plan: Plan, record_events: bool = False) -> RunResult:
        """Execute ``plan`` on this node."""
        return self.engine(record_events=record_events).run(plan)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        cfg = self.config
        return (
            f"KNLNode(mode={cfg.mode.value}, cores={cfg.cores}, "
            f"ddr={cfg.ddr_bandwidth / GB:.0f}GB/s, "
            f"mcdram={cfg.mcdram_bandwidth / GB:.0f}GB/s, "
            f"addressable_hbm={self.addressable_mcdram / GiB:.1f}GiB)"
        )


#: Nodes booted by :func:`boot`, one per configuration.
_BOOTED: dict[KNLNodeConfig, KNLNode] = {}
#: Bound on :data:`_BOOTED`; the memo is dropped wholesale when full.
_BOOTED_MAX = 256


def boot(config: KNLNodeConfig | None = None) -> KNLNode:
    """The process's node booted with ``config`` (default: the paper's).

    The first call per configuration boots a :class:`KNLNode`; later
    calls with an equal configuration return that same node, which is
    safe because a booted node is never mutated.
    """
    config = config or KNLNodeConfig()
    node = _BOOTED.get(config)
    if node is None:
        if len(_BOOTED) >= _BOOTED_MAX:
            _BOOTED.clear()
        node = _BOOTED[config] = KNLNode(config)
    return node

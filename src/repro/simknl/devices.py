"""Memory device models: DDR4 DIMMs and on-package MCDRAM.

A device couples a bandwidth :class:`~repro.simknl.flows.Resource` with
capacity accounting and a latency figure. The paper's key observation —
MCDRAM offers ~4.4x the bandwidth of DDR at *similar latency* — is
encoded in the defaults: both devices sit near 130-150 ns loaded
latency, while bandwidths differ (90 vs 400 GB/s as measured by STREAM
in the paper's Table 2).

Per-thread streaming rates are bounded by memory-level parallelism:
a thread with ``mlp`` outstanding 64 B lines against latency ``lat``
sustains at most ``mlp * 64 / lat`` bytes/s (Little's law). The
calibrated ``S_copy``/``S_comp`` values of Table 2 are consistent with
this bound and are what the model layer actually uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import CapacityError, ConfigError
from repro.simknl.flows import Resource
from repro.telemetry import names as _tn
from repro.telemetry import runtime as _tm
from repro.units import CACHE_LINE, GB, GiB


@dataclass
class MemoryDevice:
    """A byte-addressable memory device.

    Parameters
    ----------
    name:
        Resource name, e.g. ``"ddr"``.
    bandwidth:
        Sustainable STREAM bandwidth in bytes/s.
    capacity:
        Usable capacity in bytes.
    latency:
        Loaded access latency in seconds.
    channels:
        Number of independent channels/stacks (informational; the
        aggregate bandwidth already reflects them).
    """

    name: str
    bandwidth: float
    capacity: float
    latency: float
    channels: int = 1
    allocated: float = field(default=0.0, init=False)

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ConfigError(f"{self.name}: bandwidth must be positive")
        if self.capacity <= 0:
            raise ConfigError(f"{self.name}: capacity must be positive")
        if self.latency <= 0:
            raise ConfigError(f"{self.name}: latency must be positive")
        if self.channels <= 0:
            raise ConfigError(f"{self.name}: channels must be positive")

    def resource(self) -> Resource:
        """The bandwidth resource this device contributes."""
        return Resource(name=self.name, capacity=self.bandwidth)

    @property
    def free(self) -> float:
        """Unallocated capacity in bytes."""
        return self.capacity - self.allocated

    def reserve(self, nbytes: float) -> None:
        """Reserve ``nbytes`` of capacity.

        Raises
        ------
        CapacityError
            If the device does not have ``nbytes`` free.
        """
        if nbytes < 0:
            raise CapacityError(f"{self.name}: negative reservation")
        if nbytes > self.free * (1 + 1e-12):
            raise CapacityError(
                f"{self.name}: reserving {nbytes / GiB:.3f} GiB exceeds free "
                f"{self.free / GiB:.3f} GiB"
            )
        self.allocated += nbytes
        tel = _tm.current()
        if tel.enabled:
            tel.metrics.gauge(_tn.DEVICE_RESERVED_BYTES).set(
                self.allocated, device=self.name
            )

    def release(self, nbytes: float) -> None:
        """Return ``nbytes`` of previously reserved capacity."""
        if nbytes < 0:
            raise CapacityError(f"{self.name}: negative release")
        if nbytes > self.allocated * (1 + 1e-12):
            raise CapacityError(
                f"{self.name}: releasing more than allocated"
            )
        self.allocated = max(0.0, self.allocated - nbytes)
        tel = _tm.current()
        if tel.enabled:
            tel.metrics.gauge(_tn.DEVICE_RESERVED_BYTES).set(
                self.allocated, device=self.name
            )

    def per_thread_rate_bound(self, mlp: int = 10) -> float:
        """Little's-law bound on one thread's streaming rate (bytes/s).

        ``mlp`` is the number of outstanding cache-line requests a
        single thread sustains (KNL cores support ~10s of outstanding
        L2 misses per tile).
        """
        if mlp <= 0:
            raise ConfigError("mlp must be positive")
        return mlp * CACHE_LINE / self.latency


def ddr4_device(
    bandwidth: float = 90 * GB,
    capacity: float = 96 * GiB,
    latency: float = 130e-9,
) -> MemoryDevice:
    """The KNL node's six-channel DDR4 pool (paper Table 2: 90 GB/s)."""
    return MemoryDevice(
        name="ddr",
        bandwidth=bandwidth,
        capacity=capacity,
        latency=latency,
        channels=6,
    )


def mcdram_device(
    bandwidth: float = 400 * GB,
    capacity: float = 16 * GiB,
    latency: float = 150e-9,
) -> MemoryDevice:
    """The eight-stack on-package MCDRAM (paper Table 2: 400 GB/s).

    Note the latency default is slightly *worse* than DDR — the paper's
    point (3) in Section 1.1: MCDRAM is a bandwidth device, not a
    latency device.
    """
    return MemoryDevice(
        name="mcdram",
        bandwidth=bandwidth,
        capacity=capacity,
        latency=latency,
        channels=8,
    )

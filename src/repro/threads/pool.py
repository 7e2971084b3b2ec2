"""Thread pools and the compute / copy-in / copy-out split.

The buffered chunking scheme of Section 3 partitions the node's
hardware threads into up to three disjoint pools. The model (Eqs. 1-5)
and the engine read only the pool sizes, so :class:`PoolSet` holds
three thread counts and validates them against the node.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.simknl.node import KNLNode
from repro.telemetry import runtime as _tm


@dataclass
class PoolSet:
    """Thread counts of the compute, copy-in and copy-out pools."""

    compute: int
    copy_in: int
    copy_out: int

    def __post_init__(self) -> None:
        tel = _tm.current()
        if tel.enabled:
            from repro.telemetry import names as _tn
            gauge = tel.metrics.gauge(_tn.POOL_THREADS)
            gauge.set(self.compute, role="compute")
            gauge.set(self.copy_in, role="copy-in")
            gauge.set(self.copy_out, role="copy-out")

    @property
    def total(self) -> int:
        """Total threads across all pools."""
        return self.compute + self.copy_in + self.copy_out

    @property
    def copy_threads(self) -> int:
        """Combined copy-in + copy-out threads (the model's p_in + p_out)."""
        return self.copy_in + self.copy_out

    @classmethod
    def split(
        cls,
        node: KNLNode,
        compute: int,
        copy_in: int,
        copy_out: int | None = None,
    ) -> "PoolSet":
        """Partition the node's threads into the three role pools.

        ``copy_out`` defaults to ``copy_in`` (the model's symmetric
        assumption).

        Raises
        ------
        ConfigError
            If any count is negative or the total exceeds the node.
        """
        if copy_out is None:
            copy_out = copy_in
        for label, n in (("compute", compute), ("copy_in", copy_in), ("copy_out", copy_out)):
            if n < 0:
                raise ConfigError(f"{label} count must be non-negative")
        total = compute + copy_in + copy_out
        if total > node.total_threads:
            raise ConfigError(
                f"{total} threads requested but node has {node.total_threads}"
            )
        return cls(compute=compute, copy_in=copy_in, copy_out=copy_out)

    @classmethod
    def compute_only(
        cls, node: KNLNode, threads: int | None = None
    ) -> "PoolSet":
        """All threads to compute — the implicit-cache-mode arrangement."""
        n = node.total_threads if threads is None else threads
        return cls.split(node, compute=n, copy_in=0, copy_out=0)

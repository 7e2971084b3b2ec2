"""Thread pools and the compute / copy-in / copy-out split.

The buffered chunking scheme of Section 3 partitions the node's
hardware threads into up to three disjoint pools. :class:`PoolSet`
owns that partition, validates it against the node, and builds
:class:`~repro.simknl.flows.Flow` objects for each pool's role.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.errors import ConfigError
from repro.simknl.flows import Flow
from repro.simknl.node import KNLNode
from repro.telemetry import names as _tn
from repro.telemetry import runtime as _tm
from repro.threads.affinity import AffinityPolicy, assign_threads


@dataclass(frozen=True)
class ThreadPool:
    """A named set of hardware threads.

    Attributes
    ----------
    name:
        Role name (``"compute"``, ``"copy-in"``, ``"copy-out"``).
    threads:
        Global hardware thread ids, disjoint from other pools.
    """

    name: str
    threads: tuple[int, ...]

    @property
    def size(self) -> int:
        """Number of threads in the pool."""
        return len(self.threads)

    def flow(
        self,
        per_thread_rate: float,
        resources: Mapping[str, float],
        nbytes: float,
        name: str | None = None,
    ) -> Flow:
        """Build a flow with this pool's thread count."""
        return Flow(
            name=name or self.name,
            threads=self.size,
            per_thread_rate=per_thread_rate,
            resources=dict(resources),
            bytes_total=nbytes,
        )


@dataclass
class PoolSet:
    """A disjoint partition of node threads into role pools."""

    compute: ThreadPool
    copy_in: ThreadPool
    copy_out: ThreadPool

    def __post_init__(self) -> None:
        pools = (self.compute, self.copy_in, self.copy_out)
        if len(set().union(*(p.threads for p in pools))) != self.total:
            # Some id appears twice: walk the pools to name it.
            seen: set[int] = set()
            for pool in pools:
                own: set[int] = set()
                for t in pool.threads:
                    if t in own:
                        raise ConfigError(
                            f"pool {pool.name!r} repeats thread {t}"
                        )
                    own.add(t)
                overlap = seen.intersection(own)
                if overlap:
                    raise ConfigError(
                        f"pool {pool.name!r} reuses threads "
                        f"{sorted(overlap)[:5]}"
                    )
                seen.update(own)
        tel = _tm.current()
        if tel.enabled:
            gauge = tel.metrics.gauge(_tn.POOL_THREADS)
            gauge.set(self.compute.size, role="compute")
            gauge.set(self.copy_in.size, role="copy-in")
            gauge.set(self.copy_out.size, role="copy-out")

    @property
    def total(self) -> int:
        """Total threads across all pools."""
        return self.compute.size + self.copy_in.size + self.copy_out.size

    @property
    def copy_threads(self) -> int:
        """Combined copy-in + copy-out threads (the model's p_in + p_out)."""
        return self.copy_in.size + self.copy_out.size

    @classmethod
    def split(
        cls,
        node: KNLNode,
        compute: int,
        copy_in: int,
        copy_out: int | None = None,
        policy: AffinityPolicy = AffinityPolicy.SCATTER,
    ) -> "PoolSet":
        """Partition the node's threads into the three role pools.

        ``copy_out`` defaults to ``copy_in`` (the model's symmetric
        assumption). The compute pool gets the first slots so it keeps
        whole cores under SCATTER.

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
        slots = assign_threads(node.topology, total, policy)
        c = tuple(slots[:compute])
        ci = tuple(slots[compute : compute + copy_in])
        co = tuple(slots[compute + copy_in :])
        return cls(
            compute=ThreadPool("compute", c),
            copy_in=ThreadPool("copy-in", ci),
            copy_out=ThreadPool("copy-out", co),
        )

    @classmethod
    def compute_only(
        cls, node: KNLNode, threads: int | None = None
    ) -> "PoolSet":
        """All threads to compute — the implicit-cache-mode arrangement."""
        n = node.total_threads if threads is None else threads
        return cls.split(node, compute=n, copy_in=0, copy_out=0)

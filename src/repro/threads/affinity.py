"""Thread-to-core affinity in the style of ``KMP_AFFINITY``.

* ``COMPACT`` packs SMT siblings first: threads 0-3 land on core 0.
  Maximizes L2 sharing within a tile, risks unbalanced core use.
* ``SCATTER`` round-robins across cores first: threads 0-67 land on
  distinct cores before any SMT sibling is used. This is what the
  paper's bandwidth-bound pools want — one stream per core saturates
  memory with the fewest threads.

Models the KMP_AFFINITY settings of the paper's Section 5 experimental
setup.
"""

from __future__ import annotations

import enum

from repro.errors import ConfigError
from repro.simknl.topology import KNLTopology


class AffinityPolicy(enum.Enum):
    """Supported placement policies."""

    COMPACT = "compact"
    SCATTER = "scatter"


def assign_threads(
    topology: KNLTopology,
    count: int,
    policy: AffinityPolicy = AffinityPolicy.SCATTER,
) -> list[int]:
    """Pick ``count`` hardware-thread slots under ``policy``.

    Returns global hardware thread ids, where thread ``t`` runs on core
    ``t // threads_per_core`` (compact numbering as in
    :meth:`KNLTopology.core_of_thread`).

    Raises
    ------
    ConfigError
        If ``count`` exceeds the hardware thread count or is negative.
    """
    if count < 0:
        raise ConfigError("thread count must be non-negative")
    if count > topology.num_threads:
        raise ConfigError(
            f"requested {count} threads but node has {topology.num_threads}"
        )
    if policy is AffinityPolicy.COMPACT:
        return list(range(count))
    if policy is AffinityPolicy.SCATTER:
        spc = topology.threads_per_core
        cores = topology.num_cores
        # Thread i lands on core i % cores, SMT slot i // cores: each
        # SMT level is one stride-``spc`` range over the cores.
        out: list[int] = []
        for smt in range(-(-count // cores)):
            width = min(cores, count - smt * cores)
            out.extend(range(smt, smt + width * spc, spc))
        return out
    raise ConfigError(f"unknown policy {policy!r}")


def cores_used(topology: KNLTopology, threads: list[int]) -> set[int]:
    """The set of physical cores hosting ``threads``."""
    return {topology.core_of_thread(t) for t in threads}

"""External-memory (out-of-core) mergesort: the Section 2.2 contrast.

The paper positions its work against the out-of-core tradition ("our
in-memory sort can only sort datasets that fit into the DDR memory"):
when data exceeds *all* memory levels, the classic DAM-model answer is
run formation + multiway merge against disk.
:func:`external_sort_plan` times it on the simulated node with a disk
device: run-formation and merge passes stream the data set through
DDR and disk, showing where the crossover with the in-memory MLM-sort
lies.
"""

from __future__ import annotations

import math

from repro.errors import ConfigError
from repro.simknl.devices import MemoryDevice
from repro.simknl.engine import Phase, Plan
from repro.simknl.flows import Flow
from repro.simknl.node import KNLNode
from repro.units import GB, GiB, INT64


def disk_device(
    bandwidth: float = 2 * GB,
    capacity: float = 8192 * GiB,
    latency: float = 100e-6,
) -> MemoryDevice:
    """An NVMe-class block device for the timed plans."""
    return MemoryDevice(
        name="disk",
        bandwidth=bandwidth,
        capacity=capacity,
        latency=latency,
        channels=4,
    )


def external_sort_plan(
    node: KNLNode,
    n: int,
    memory_budget_bytes: float,
    threads: int = 256,
    fan_in: int = 64,
    s_sort: float = 0.21e9,
    s_merge: float = 0.55e9,
    element_size: int = INT64,
) -> Plan:
    """Timed out-of-core mergesort against the disk device.

    Run formation reads the data from disk and writes sorted runs
    back (one full disk round-trip, with in-memory sorting through
    DDR); each merge pass (``ceil(log_fan_in(num_runs))`` of them)
    streams the whole data set disk -> DDR -> disk again.
    """
    if n < 1:
        raise ConfigError("n must be >= 1")
    if memory_budget_bytes <= 0:
        raise ConfigError("memory budget must be positive")
    if fan_in < 2:
        raise ConfigError("fan_in must be >= 2")
    nbytes = float(n * element_size)
    num_runs = max(1, math.ceil(nbytes / memory_budget_bytes))
    merge_passes = max(1, math.ceil(math.log(max(num_runs, 2), fan_in)))
    plan = Plan(name=f"external-sort/n={n}")
    # Run formation: disk in + out, plus the in-memory sort traffic.
    plan.add(
        Phase(
            "run-formation/io",
            [Flow("disk-io", threads, 1 * GB, {"disk": 2.0}, nbytes)],
        )
    )
    m = max(2.0, memory_budget_bytes / element_size / threads)
    levels = 1.15 * math.log2(m)
    plan.add(
        Phase(
            "run-formation/sort",
            [Flow("sort", threads, s_sort, {"ddr": 2.0}, nbytes * levels)],
        )
    )
    for p in range(merge_passes):
        plan.add(
            Phase(
                f"merge-pass{p}",
                [
                    # Streaming merge bound by both disk and memory.
                    Flow(
                        "merge",
                        threads,
                        s_merge,
                        {"disk": 2.0, "ddr": 2.0},
                        nbytes,
                    )
                ],
            )
        )
    return plan

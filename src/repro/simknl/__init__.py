"""Simulated Knights Landing node.

This package is the hardware substrate of the reproduction: a
discrete-event, bandwidth-contention performance simulator of a KNL
(Xeon Phi 7250) compute node with its two-level memory system
(DDR4 + MCDRAM), the four MCDRAM usage modes studied by the paper
(flat, hardware cache, hybrid, implicit cache), a line-granularity
direct-mapped model of the MCDRAM cache (``repro.simknl.cache``, a
NumPy test oracle, imported only where it is used).

The central abstraction is a *flow*: a thread pool streaming bytes
through one or more bandwidth resources. Phase execution solves a
max-min fair (water-filling) bandwidth allocation, which generalizes
the paper's Equations 3 and 5.
"""

from repro.simknl.flows import Flow, Resource, allocate_rates
from repro.simknl.engine import Engine, Phase, Plan, RunResult
from repro.simknl.devices import MemoryDevice, ddr4_device, mcdram_device
from repro.simknl.cache_analytic import StreamingCacheModel, CacheTraffic
from repro.simknl.node import KNLNode, KNLNodeConfig, MemoryMode

__all__ = [
    "Flow",
    "Resource",
    "allocate_rates",
    "Engine",
    "Phase",
    "Plan",
    "RunResult",
    "MemoryDevice",
    "ddr4_device",
    "mcdram_device",
    "StreamingCacheModel",
    "CacheTraffic",
    "KNLNode",
    "KNLNodeConfig",
    "MemoryMode",
]

"""Thread-pool and scheduling substrate.

KNL has no user-programmable DMA engine, so flat-mode chunking must
dedicate OpenMP threads to data movement. This package models the
three-pool arrangement the paper describes (compute / copy-in /
copy-out) and thread-to-core affinity in the style of
``KMP_AFFINITY=compact|scatter``.

Models the copy/compute pool split of Section 3, whose sizes Eqs. 1-5
pick.
"""

from repro.threads.affinity import AffinityPolicy, assign_threads
from repro.threads.pool import PoolSet, ThreadPool

__all__ = [
    "AffinityPolicy",
    "assign_threads",
    "PoolSet",
    "ThreadPool",
]

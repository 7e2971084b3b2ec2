"""Thread-pool substrate.

KNL has no user-programmable DMA engine, so flat-mode chunking must
dedicate OpenMP threads to data movement. This package models the
three-pool arrangement the paper describes (compute / copy-in /
copy-out) as thread counts, since the model and the engine read only
the pool sizes.

Models the copy/compute pool split of Section 3, whose sizes Eqs. 1-5
pick.
"""

from repro.threads.pool import PoolSet

__all__ = [
    "PoolSet",
]

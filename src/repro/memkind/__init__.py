"""Simulated memkind: heap management over heterogeneous memory.

The paper's flat-mode experiments allocate into MCDRAM via the memkind
library's ``hbw_malloc()``; here ``Heap.allocate(size, MEMKIND_HBW)``
plays that role on top of the simulated node. *Kinds* select a
placement policy (bind / preferred / interleave across DDR and
MCDRAM), a first-fit free-list heap manages each device's address
range, and the numactl
``--preferred`` behaviour used by Li et al. (allocate in MCDRAM until
full, then spill to DDR) is available as
:data:`~repro.memkind.kinds.MEMKIND_HBW_PREFERRED`.

Reproduces the flat-mode allocation mechanism of Section 1; the Section
3 chunk buffers allocate through it.
"""

from repro.memkind.kinds import (
    Kind,
    Policy,
    MEMKIND_DEFAULT,
    MEMKIND_HBW,
    MEMKIND_HBW_PREFERRED,
    MEMKIND_HBW_INTERLEAVE,
)
from repro.memkind.allocator import Allocation, Block, Heap, Region

__all__ = [
    "Kind",
    "Policy",
    "MEMKIND_DEFAULT",
    "MEMKIND_HBW",
    "MEMKIND_HBW_PREFERRED",
    "MEMKIND_HBW_INTERLEAVE",
    "Allocation",
    "Block",
    "Heap",
    "Region",
]

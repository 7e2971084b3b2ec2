"""First-fit free-list heap over the node's memory devices.

Each device gets a :class:`Region` — a contiguous simulated address
range managed by a sorted free list with first-fit allocation and
eager coalescing on free. A :class:`Heap` owns one region per device
and implements the kind policies (bind / preferred / interleave).

Addresses are synthetic but stable, so they can feed the line-level
cache simulator (e.g. to study conflict misses between co-resident
buffers in hardware cache mode).

Backs the flat-mode chunk buffers of Section 3 (Fig. 2's triple buffers
really allocate here).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import AllocationError, ConfigError
from repro.memkind.kinds import Kind, Policy
from repro.simknl.node import KNLNode
from repro.telemetry import names as _tn
from repro.telemetry import runtime as _tm
from repro.units import KiB

#: Default allocation granularity (one small page).
PAGE = 4 * KiB


@dataclass(frozen=True)
class Block:
    """A contiguous allocated extent on one device."""

    device: str
    addr: int
    size: int


@dataclass
class Allocation:
    """A (possibly multi-block) allocation returned by the heap."""

    kind: Kind
    blocks: list[Block]
    freed: bool = field(default=False, init=False)

    @property
    def size(self) -> int:
        """Total bytes across all blocks."""
        return sum(b.size for b in self.blocks)

    def bytes_on(self, device: str) -> int:
        """Bytes of this allocation resident on ``device``."""
        return sum(b.size for b in self.blocks if b.device == device)

    @property
    def devices(self) -> set[str]:
        """Devices this allocation touches."""
        return {b.device for b in self.blocks}


class Region:
    """A first-fit free-list allocator over ``[base, base + size)``."""

    def __init__(self, device: str, base: int, size: int) -> None:
        if size <= 0:
            raise ConfigError(f"region {device!r}: size must be positive")
        if base < 0:
            raise ConfigError(f"region {device!r}: negative base")
        self.device = device
        self.base = base
        self.size = size
        # Sorted list of (addr, size) free extents.
        self._free: list[tuple[int, int]] = [(base, size)]
        # Live blocks by address -> size; the authoritative double-free
        # check (the free-list overlap probes alone miss a re-free of a
        # block whose extent was coalesced away).
        self._live: dict[int, int] = {}
        self.allocated = 0

    @property
    def free_bytes(self) -> int:
        """Total free bytes (may be fragmented)."""
        return sum(s for _, s in self._free)

    @property
    def largest_free(self) -> int:
        """Largest single free extent."""
        return max((s for _, s in self._free), default=0)

    def alloc(self, size: int) -> Block:
        """First-fit allocate ``size`` bytes.

        Raises
        ------
        AllocationError
            When no single free extent is large enough.
        """
        if size <= 0:
            raise AllocationError(
                f"{self.device}: allocation size must be positive, got {size}"
            )
        for i, (addr, extent) in enumerate(self._free):
            if extent >= size:
                if extent == size:
                    del self._free[i]
                else:
                    self._free[i] = (addr + size, extent - size)
                self.allocated += size
                self._live[addr] = size
                return Block(self.device, addr, size)
        raise AllocationError(
            f"{self.device}: cannot allocate {size} bytes "
            f"(free={self.free_bytes}, largest extent={self.largest_free})"
        )

    def free(self, block: Block) -> None:
        """Return a block to the free list, coalescing neighbours."""
        if block.device != self.device:
            raise AllocationError(
                f"block belongs to {block.device!r}, not {self.device!r}"
            )
        if not (self.base <= block.addr and block.addr + block.size <= self.base + self.size):
            raise AllocationError(f"{self.device}: block outside region")
        if self._live.get(block.addr) != block.size:
            raise AllocationError(
                f"{self.device}: double free (or free of a foreign block) "
                f"at addr={block.addr:#x} size={block.size}"
            )
        addr, size = block.addr, block.size
        # Insert in sorted position.
        lo, hi = 0, len(self._free)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._free[mid][0] < addr:
                lo = mid + 1
            else:
                hi = mid
        # Overlap checks against neighbours.
        if lo > 0:
            paddr, psize = self._free[lo - 1]
            if paddr + psize > addr:
                raise AllocationError(f"{self.device}: double free detected")
        if lo < len(self._free):
            naddr, _ = self._free[lo]
            if addr + size > naddr:
                raise AllocationError(f"{self.device}: double free detected")
        self._free.insert(lo, (addr, size))
        # Coalesce with successor, then predecessor.
        if lo + 1 < len(self._free):
            naddr, nsize = self._free[lo + 1]
            if addr + size == naddr:
                self._free[lo] = (addr, size + nsize)
                del self._free[lo + 1]
                size += nsize
        if lo > 0:
            paddr, psize = self._free[lo - 1]
            if paddr + psize == addr:
                self._free[lo - 1] = (paddr, psize + size)
                del self._free[lo]
        del self._live[block.addr]
        self.allocated -= block.size

    def fragmentation(self) -> float:
        """1 - largest_free / free_bytes (0 when unfragmented or full)."""
        fb = self.free_bytes
        if fb == 0:
            return 0.0
        return 1.0 - self.largest_free / fb


class Heap:
    """Kind-aware heap spanning the node's DDR and addressable MCDRAM.

    Parameters
    ----------
    node:
        The booted node; the MCDRAM region size equals the node's
        *addressable* MCDRAM (zero in pure cache mode).
    page:
        Interleave granularity in bytes.
    """

    #: Synthetic base addresses keep the two device ranges disjoint.
    DDR_BASE = 0x0000_0000_0000
    MCDRAM_BASE = 0x1000_0000_0000

    def __init__(self, node: KNLNode, page: int = PAGE) -> None:
        if page <= 0:
            raise ConfigError("page must be positive")
        self.node = node
        self.page = page
        self.regions: dict[str, Region] = {
            "ddr": Region("ddr", self.DDR_BASE, int(node.ddr.capacity)),
        }
        hbm = int(node.addressable_mcdram)
        if hbm > 0:
            self.regions["mcdram"] = Region("mcdram", self.MCDRAM_BASE, hbm)

    def has_hbw(self) -> bool:
        """Whether addressable high-bandwidth memory exists (cf.
        ``hbw_check_available``)."""
        return "mcdram" in self.regions

    def _region(self, device: str) -> Region:
        try:
            return self.regions[device]
        except KeyError:
            raise AllocationError(
                f"device {device!r} has no addressable region in mode "
                f"{self.node.mode.value!r}"
            ) from None

    def _note_alloc(self, allocation: Allocation) -> None:
        """Account a successful allocation in the active telemetry."""
        tel = _tm.current()
        if not tel.enabled:
            return
        m = tel.metrics
        per_device: dict[str, int] = {}
        for b in allocation.blocks:
            per_device[b.device] = per_device.get(b.device, 0) + b.size
        for device, nbytes in per_device.items():
            m.counter(_tn.ALLOC_REQUESTS_TOTAL).inc(device=device)
            m.counter(_tn.ALLOC_BYTES_TOTAL).inc(nbytes, device=device)
            m.gauge(_tn.ALLOC_HIGH_WATER_BYTES).set_max(
                self.regions[device].allocated, device=device
            )

    def allocate(self, size: int, kind: Kind) -> Allocation:
        """Allocate ``size`` bytes according to ``kind``'s policy."""
        if size <= 0:
            raise AllocationError(
                f"allocation size must be positive, got {size}"
            )
        try:
            allocation = self._allocate(size, kind)
        except AllocationError:
            tel = _tm.current()
            if tel.enabled:
                tel.metrics.counter(_tn.ALLOC_FAILURES_TOTAL).inc(
                    device=kind.target
                )
            raise
        self._note_alloc(allocation)
        return allocation

    def _allocate(self, size: int, kind: Kind) -> Allocation:
        if kind.policy is Policy.BIND:
            block = self._region(kind.target).alloc(size)
            return Allocation(kind=kind, blocks=[block])
        if kind.policy is Policy.PREFERRED:
            try:
                block = self._region(kind.target).alloc(size)
                return Allocation(kind=kind, blocks=[block])
            except AllocationError:
                if kind.fallback is None:
                    raise
                tel = _tm.current()
                if tel.enabled:
                    tel.metrics.counter(_tn.ALLOC_FAILURES_TOTAL).inc(
                        device=kind.target
                    )
                block = self._region(kind.fallback).alloc(size)
                if tel.enabled:
                    tel.metrics.counter(_tn.ALLOC_FALLBACKS_TOTAL).inc()
                    tel.events.emit(
                        _tn.EVENT_ALLOC_FALLBACK,
                        target=kind.target,
                        fallback=kind.fallback,
                        bytes=size,
                    )
                return Allocation(kind=kind, blocks=[block])
        if kind.policy is Policy.INTERLEAVE:
            return self._allocate_interleaved(size, kind)
        raise ConfigError(f"unknown policy {kind.policy!r}")

    def _allocate_interleaved(self, size: int, kind: Kind) -> Allocation:
        if kind.fallback is None:
            raise ConfigError("interleave kind requires a fallback device")
        devices = [kind.target, kind.fallback]
        if not self.has_hbw():
            # Nothing to interleave with: everything lands on fallback.
            block = self._region(kind.fallback).alloc(size)
            return Allocation(kind=kind, blocks=[block])
        blocks: list[Block] = []
        remaining = size
        i = 0
        try:
            while remaining > 0:
                chunk = min(self.page, remaining)
                blocks.append(self._region(devices[i % 2]).alloc(chunk))
                remaining -= chunk
                i += 1
        except AllocationError:
            for b in blocks:
                self.regions[b.device].free(b)
            raise
        return Allocation(kind=kind, blocks=blocks)

    def free(self, allocation: Allocation) -> None:
        """Free all blocks of ``allocation``. Double frees raise."""
        if allocation.freed:
            raise AllocationError("double free of allocation")
        tel = _tm.current()
        for b in allocation.blocks:
            self.regions[b.device].free(b)
            if tel.enabled:
                tel.metrics.counter(_tn.ALLOC_FREES_TOTAL).inc(
                    device=b.device
                )
        allocation.freed = True

    def usage(self) -> dict[str, int]:
        """Allocated bytes per device."""
        return {name: r.allocated for name, r in self.regions.items()}

"""Usage modes: how a chunked kernel engages the MCDRAM.

The paper distinguishes the *BIOS memory mode* (what the hardware
does — flat, cache, hybrid) from the *usage mode* (what the software
does). This module defines the software side:

* ``FLAT`` — explicit chunking with copies into addressable MCDRAM
  (requires flat BIOS mode);
* ``HYBRID`` — the same against the addressable fraction of hybrid
  BIOS mode;
* ``IMPLICIT`` — the paper's proposal: run the *chunked* algorithm in
  cache BIOS mode with no explicit copies, letting the hardware cache
  pull each chunk in on first touch (Fig. 5);
* ``CACHE`` — unchunked legacy code in cache BIOS mode (the GNU-cache
  baseline);
* ``DDR`` — no MCDRAM use at all (the GNU-flat / MLM-ddr baselines).

It also provides the conversion from a kernel's *logical* streaming
traffic to *physical* per-device flow multipliers under each usage
mode, including the divide-and-conquer cache-residency split that
explains why MLM-implicit tolerates megachunks larger than MCDRAM
(Section 4: "every thread can have its active set in MCDRAM").
"""

from __future__ import annotations

import enum
import math

from repro.errors import ConfigError
from repro.simknl.node import KNLNode, KNLNodeConfig, MemoryMode


class UsageMode(enum.Enum):
    """Software usage modes studied by the paper."""

    FLAT = "flat"
    HYBRID = "hybrid"
    IMPLICIT = "implicit"
    CACHE = "cache"
    DDR = "ddr"


_MODE_LABELS = {
    UsageMode.FLAT: "flat (explicit chunking)",
    UsageMode.HYBRID: "hybrid (explicit chunking, partial cache)",
    UsageMode.IMPLICIT: "implicit cache (chunked, no copies)",
    UsageMode.CACHE: "hardware cache (unchunked)",
    UsageMode.DDR: "DDR only",
}


def mode_label(mode: UsageMode) -> str:
    """Human-readable label used by experiment reports."""
    return _MODE_LABELS[mode]


def required_memory_mode(mode: UsageMode) -> MemoryMode | None:
    """The BIOS memory mode a usage mode requires (None: any)."""
    if mode is UsageMode.FLAT:
        return MemoryMode.FLAT
    if mode is UsageMode.HYBRID:
        return MemoryMode.HYBRID
    if mode in (UsageMode.IMPLICIT, UsageMode.CACHE):
        return MemoryMode.CACHE
    return None


def validate_node_mode(
    node: KNLNode | KNLNodeConfig, mode: UsageMode
) -> None:
    """Raise :class:`ConfigError` when the node is booted incompatibly.

    Reads only the boot mode, so a node's config serves as well as the
    node (the plan-template builders pass the config they are keyed on).
    """
    req = required_memory_mode(mode)
    if req is not None and node.mode is not req:
        raise ConfigError(
            f"usage mode {mode.value!r} requires BIOS mode {req.value!r}, "
            f"node is booted in {node.mode.value!r}"
        )


def compute_multipliers(
    node: KNLNode,
    mode: UsageMode,
    working_set: float,
    passes: float,
    write_fraction: float = 1.0,
    cold: bool = True,
) -> dict[str, float]:
    """Per-logical-byte resource multipliers for a compute stage.

    The stage's logical traffic is ``2 * working_set * passes`` bytes
    (read+write per pass). In flat/hybrid modes the chunk is resident
    in addressable MCDRAM, so every logical byte is one MCDRAM byte;
    in DDR mode one DDR byte; in the cache-backed modes the traffic is
    filtered through the analytic direct-mapped cache model, which
    converts it to MCDRAM-hit plus DDR miss/fill/writeback bytes.
    """
    validate_node_mode(node, mode)
    if working_set < 0 or passes < 0:
        raise ConfigError("working_set and passes must be non-negative")
    if mode in (UsageMode.FLAT, UsageMode.HYBRID):
        return {"mcdram": 1.0}
    if mode is UsageMode.DDR:
        return {"ddr": 1.0}
    # Cache-backed modes: each kernel pass is one read sweep plus one
    # (fractional) write sweep over the working set.
    if node.cache_model is None:
        raise ConfigError("cache-backed usage mode on a node without cache")
    sweeps = max(1, int(round(2 * passes)))
    traffic = node.cache_model.stream(
        working_set,
        passes=sweeps,
        write_fraction=write_fraction / 2.0,
        cold=cold,
    )
    logical = working_set * sweeps
    if logical <= 0:
        return {"mcdram": 0.0, "ddr": 0.0}
    return {
        "mcdram": traffic.mcdram_bytes / logical,
        "ddr": traffic.ddr_bytes / logical,
    }


def dc_cache_split(
    node: KNLNode,
    mode: UsageMode,
    working_set: float,
    levels: float,
    level_offset: float = 0.0,
) -> tuple[float, float]:
    """Split a divide-and-conquer kernel's levels into (uncached, cached).

    A recursive sort over ``working_set`` bytes halves its active set
    each level. Under a cache-backed usage mode, the first
    ``log2(working_set / cache)`` levels stream a working set larger
    than the MCDRAM cache (thrashing to DDR); all deeper levels are
    cache-resident and run at MCDRAM speed. In flat/hybrid/DDR modes
    there is no cache: all levels run against the chunk's home device,
    so the split is (0, levels) for flat and (levels, 0) is meaningless
    — callers use :func:`compute_multipliers` directly instead.

    Returns the pair ``(uncached_levels, cached_levels)`` with
    ``uncached + cached == levels``.
    """
    if levels < 0:
        raise ConfigError("levels must be non-negative")
    if mode not in (UsageMode.IMPLICIT, UsageMode.CACHE):
        raise ConfigError("dc_cache_split applies to cache-backed modes only")
    validate_node_mode(node, mode)
    if level_offset < 0:
        raise ConfigError("level_offset must be non-negative")
    cache = node.cache_model.usable_capacity if node.cache_model else 0.0
    if cache <= 0 or working_set <= cache:
        return (0.0, levels)
    uncached = min(levels, max(0.0, math.log2(working_set / cache) - level_offset))
    return (uncached, levels - uncached)

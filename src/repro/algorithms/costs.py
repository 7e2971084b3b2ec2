"""Calibrated cost model for the timed sort plans.

The simulator needs per-thread streaming rates and effective pass
counts for each algorithm phase. The device-side numbers (bandwidths,
``S_copy``) come straight from the paper's Table 2. The remaining
constants are calibrated **once**, against a single cell of Table 1
(GNU-flat at 2 billion random elements = 11.92 s); every other number
the experiments produce is then a prediction. The calibration choices
and their physical readings:

``s_sort_random``
    Logical bytes/s one thread sustains while sorting (each logical
    byte is one element-byte per recursion level; physical traffic is
    2x for read+write). 0.2 GB/s/thread at 256 threads gives
    ~51 GB/s aggregate demand — just above the DDR ceiling's 45 GB/s
    logical share, which is what makes DDR-resident sorting
    bandwidth-bound (the paper's premise) while MCDRAM-resident
    sorting is thread-bound (so extra bandwidth still helps).
``level_overhead``
    Effective recursion levels as a multiple of ``log2(m)``; >1 folds
    in TLB misses, partition-boundary effects, and allocator traffic.
``gnu_level_overhead``
    The same for the GNU multiway mergesort, which is not in-place:
    its temp-buffer discipline and exact-splitting bookkeeping cost
    extra effective passes. This is the structural reason MLM-ddr
    (9.28 s) beats GNU-flat (11.92 s) on identical hardware.
``reverse_factor_*``
    Reverse-sorted inputs shrink the effective level count: introsort
    partitions around a median-of-three pivot and branch-predicts
    almost perfectly on monotone runs. The paper observes MLM exploits
    this structure more than GNU (Section 4.1), hence two factors.
``cache_bw_factor``
    Hardware cache mode serves hits at slightly below raw MCDRAM
    speed (tag checks, miss handling occupancy).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.errors import ConfigError
from repro.units import GB


@dataclass(frozen=True)
class SortCostModel:
    """Calibration constants for the timed sort plans."""

    #: Per-thread copy rate between DDR and MCDRAM (Table 2).
    s_copy: float = 4.8 * GB
    #: Per-thread logical sort rate, random input.
    s_sort_random: float = 0.21 * GB
    #: Per-thread logical rate during multiway merge phases.
    s_merge: float = 0.55 * GB
    #: Effective levels multiplier for MLM serial sorts.
    level_overhead: float = 1.15
    #: Constant part of the serial-sort level count: the deep,
    #: cache-resident recursion levels cost the same regardless of the
    #: top-level chunk size.
    level_const: float = 12.0
    #: Weight of the ``log2(m)`` term: only the shallow levels whose
    #: active sets exceed the cache hierarchy scale with chunk size.
    level_log_weight: float = 0.35
    #: Fixed seconds of per-megachunk overhead (OpenMP fork/join
    #: barriers, buffer instantiation, exact-splitting setup). This is
    #: what penalizes small chunks in Fig. 7.
    chunk_overhead_s: float = 0.30
    #: Effective levels multiplier for GNU multiway mergesort.
    gnu_level_overhead: float = 1.35
    #: Level-count factor for reverse-sorted input, MLM variants.
    reverse_factor_mlm: float = 0.45
    #: Level-count factor for reverse-sorted input, GNU variants.
    reverse_factor_gnu: float = 0.66
    #: Bandwidth derating of MCDRAM when accessed through the cache.
    cache_bw_factor: float = 0.85
    #: Per-thread rate derating while the working set thrashes the
    #: hardware cache (demand misses serialize on DDR fills).
    thrash_rate_factor: float = 0.70
    #: Recursion levels subtracted from the thrash band: the first
    #: oversize level already enjoys substantial cache service because
    #: active sets halve while the level is in flight.
    thrash_level_offset: float = 0.25
    #: GNU multiway mergesort keeps data + temp live.
    gnu_working_set_factor: float = 2.0

    def __post_init__(self) -> None:
        for name in (
            "s_copy",
            "s_sort_random",
            "s_merge",
            "level_overhead",
            "gnu_level_overhead",
        ):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        for name in (
            "reverse_factor_mlm",
            "reverse_factor_gnu",
            "cache_bw_factor",
            "thrash_rate_factor",
        ):
            v = getattr(self, name)
            if not 0 < v <= 1:
                raise ConfigError(f"{name} must be in (0, 1]")
        for name in (
            "level_const",
            "level_log_weight",
            "chunk_overhead_s",
            "thrash_level_offset",
        ):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")

    def order_factor(self, order: str, gnu: bool) -> float:
        """Effective-level factor for an input order."""
        if order == "random":
            return 1.0
        if order == "reverse":
            return self.reverse_factor_gnu if gnu else self.reverse_factor_mlm
        if order == "sorted":
            # Presorted input: introsort degenerates to one verification
            # pass worth of work per level band; approximate with the
            # reverse factor squared (strictly easier than reverse).
            f = self.reverse_factor_gnu if gnu else self.reverse_factor_mlm
            return f * f
        raise ConfigError(f"unknown input order {order!r}")

    def replace(self, **kw) -> "SortCostModel":
        """A copy with some constants overridden (ablation studies)."""
        return replace(self, **kw)


#: The calibrated model, built and validated once. Every builder falls
#: back to this one object when no model is passed, so cells never
#: re-validate it and template keys holding it compare by identity.
DEFAULT_COST = SortCostModel()


def sort_levels(
    m_elements: float,
    cost: SortCostModel,
    order: str = "random",
    gnu: bool = False,
) -> float:
    """Effective streaming levels of a serial sort of ``m_elements``.

    For the MLM serial sorts the count is
    ``level_overhead * (level_const + level_log_weight * log2 m)``:
    a large constant band of cache-resident levels plus a weak
    chunk-size-dependent term for the shallow levels whose active sets
    spill past the caches. The GNU baseline always sorts the same
    per-thread block (``n / p``), so its count is a plain
    ``gnu_level_overhead * log2(m)``. Each level reads and writes the
    block once; the order factor models presorted-structure shortcuts.
    """
    if m_elements < 1:
        raise ConfigError("m_elements must be >= 1")
    log_m = max(1.0, math.log2(m_elements))
    if gnu:
        base = cost.gnu_level_overhead * log_m
    else:
        base = cost.level_overhead * (
            cost.level_const + cost.level_log_weight * log_m
        )
    return max(1.0, base * cost.order_factor(order, gnu))

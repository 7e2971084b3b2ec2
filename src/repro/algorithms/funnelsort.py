"""Funnelsort: the cache-oblivious sort of Frigo et al. (Section 2.1).

The paper's related work singles out funnelsort as the
cache-oblivious algorithm whose engineered variant ("Lazy Funnelsort",
Brodal et al.) eventually outperformed tuned quicksorts. Its recursion
splits the input into ~n^(1/3) segments of size ~n^(2/3), sorts each
recursively and k-way merges the results.
:func:`funnelsort_plan` times that structure with
:mod:`repro.algorithms.oblivious`'s derated constants, which reflect
the un-engineered state of a straightforward implementation.
"""

from __future__ import annotations

import math

from repro.errors import ConfigError

#: Inputs at or below this size are sorted directly, so the plan
#: charges ``log2(m / FUNNEL_BASE)`` merge levels per block.
FUNNEL_BASE = 64


def funnelsort_plan(
    node,
    n: int,
    order: str = "random",
    mode=None,
    threads: int = 256,
    cost=None,
    element_size: int = 8,
):
    """Timed plan for funnelsort on the simulated node.

    Structure: ``threads`` concurrent recursive funnelsorts of
    ``n/threads`` blocks, then one k-way merge round per funnel level
    across blocks. Funnelsort's recursion gives Θ(log log m) *rounds*
    over the data (each round a full k-way merge sweep), but each
    round's merge costs Θ(log k) per element — the totals match
    mergesort asymptotically; the cache behaviour is what differs.
    We charge the same streaming machinery as the other sorts, with
    the un-engineered-merge derating of
    :data:`repro.algorithms.oblivious.OBLIVIOUS_OVERHEAD`.
    """
    from repro.algorithms.costs import DEFAULT_COST
    from repro.algorithms.oblivious import OBLIVIOUS_OVERHEAD
    from repro.algorithms.parallel_sort import _sort_phases
    from repro.core.modes import UsageMode, validate_node_mode
    from repro.simknl.engine import Plan

    mode = mode if mode is not None else UsageMode.CACHE
    validate_node_mode(node, mode)
    if n < 1 or threads < 1:
        raise ConfigError("n and threads must be positive")
    cost = cost or DEFAULT_COST
    nbytes = float(n * element_size)
    m = max(2.0, n / threads)
    # Each funnel round k-way merges segments: log2(m) comparison
    # levels total across all rounds (k-way merge = log2 k levels),
    # same asymptotic work as mergesort.
    levels = (
        max(1.0, math.log2(m / FUNNEL_BASE))
        * OBLIVIOUS_OVERHEAD
        * cost.order_factor(order, gnu=False)
    )
    tree = (
        max(1.0, math.log2(threads))
        * OBLIVIOUS_OVERHEAD
        * cost.order_factor(order, gnu=False)
    )
    plan = Plan(name=f"funnelsort-{mode.value}/{order}/n={n}")
    for phase in _sort_phases(
        node, mode, nbytes, levels, threads, cost.s_sort_random, cost,
        working_set=nbytes, label="funnel-blocks",
    ):
        plan.add(phase)
    for phase in _sort_phases(
        node, mode, nbytes, tree, threads, cost.s_merge, cost,
        working_set=nbytes, label="funnel-tree",
    ):
        plan.add(phase)
    return plan


def funnelsort_merge_depth(n: int) -> int:
    """Recursion depth of the funnelsort split (log log-ish growth).

    Useful to see why funnelsort's pass structure differs from binary
    mergesort: each level multiplies the segment count by ~n^(1/3), so
    the depth is Θ(log log n) merge *rounds* over the data rather than
    Θ(log n).
    """
    if n < 1:
        raise ConfigError("n must be >= 1")
    depth = 0
    size = n
    while size > FUNNEL_BASE:
        size = math.ceil(size ** (2.0 / 3.0))
        depth += 1
    return depth

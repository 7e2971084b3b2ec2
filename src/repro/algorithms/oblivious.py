"""Cache-oblivious mergesort: the related-work comparison point.

Section 2.1 of the paper conjectures that cache-oblivious versions of
its simple cache-aware algorithms "might eventually perform as well
without requiring tuning per machine" (citing funnelsort).
:func:`oblivious_sort_plan` times a parallel recursive binary
mergesort, the canonical cache-oblivious sort skeleton: no machine
parameters anywhere. The recursion means a level's working set halves
with depth, so under a cache-backed mode the deep levels are
automatically cache-resident — the *same* active-set effect
MLM-implicit exploits, obtained with zero tuning. The price: no level
skips, so the full ``log2 n`` level count is paid (MLM-sort's serial
introsort shares constants across chunks).
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.algorithms.costs import DEFAULT_COST, SortCostModel
from repro.algorithms.parallel_sort import _sort_phases
from repro.core.modes import UsageMode, validate_node_mode
from repro.simknl.engine import Plan
from repro.simknl.node import KNLNode
from repro.units import INT64

#: Recursion base case: tiny blocks are sorted directly, so the plan
#: charges ``log2(m / BASE_CASE)`` merge levels per block.
BASE_CASE = 32

#: Constant-factor penalty of naive binary merging versus in-place
#: partitioning (out-of-place temp buffers, two-stream access). The
#: funnelsort literature (Brodal et al.) needed careful engineering to
#: close exactly this gap against tuned quicksorts.
OBLIVIOUS_OVERHEAD = 1.35


def oblivious_sort_plan(
    node: KNLNode,
    n: int,
    order: str = "random",
    mode: UsageMode = UsageMode.CACHE,
    threads: int = 256,
    cost: SortCostModel | None = None,
    element_size: int = INT64,
) -> Plan:
    """Timed plan for a parallel cache-oblivious mergesort.

    Structure: ``threads`` concurrent recursive sorts of ``n/threads``
    blocks (each a full binary-mergesort recursion — ``log2 m`` merge
    levels, no skipping), then a binary merge tree across blocks
    (``log2 threads`` more levels over the whole array). Because the
    algorithm is oblivious, the *same* plan shape runs in every usage
    mode; only the cache interaction differs — which is the point of
    the comparison.
    """
    validate_node_mode(node, mode)
    if n < 1 or threads < 1:
        raise ConfigError("n and threads must be positive")
    cost = cost or DEFAULT_COST
    nbytes = float(n * element_size)
    m = max(2.0, n / threads)
    # Full log2 levels within blocks — obliviousness means no
    # constant-band shortcut — scaled by the order factor (binary
    # merges also skip work on presorted runs).
    import math

    block_levels = (
        max(1.0, math.log2(m / BASE_CASE))
        * OBLIVIOUS_OVERHEAD
        * cost.order_factor(order, gnu=False)
    )
    tree_levels = (
        max(1.0, math.log2(threads))
        * OBLIVIOUS_OVERHEAD
        * cost.order_factor(order, gnu=False)
    )
    plan = Plan(name=f"oblivious-{mode.value}/{order}/n={n}")
    # Per-block recursion: working set = one block per thread,
    # aggregate = full array.
    for phase in _sort_phases(
        node,
        mode,
        nbytes,
        block_levels,
        threads,
        cost.s_sort_random,
        cost,
        working_set=nbytes,
        label="block-recursion",
    ):
        plan.add(phase)
    # Cross-block merge tree: each level streams the whole array.
    for phase in _sort_phases(
        node,
        mode,
        nbytes,
        tree_levels,
        threads,
        cost.s_merge,
        cost,
        working_set=nbytes,
        label="merge-tree",
    ):
        plan.add(phase)
    return plan

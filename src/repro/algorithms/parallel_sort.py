"""GNU-parallel-sort equivalent as a timed plan.

``__gnu_parallel::sort`` is a multiway mergesort: each of ``p``
threads sorts an ``n/p`` block serially, then a parallel multiway
merge with exact splitting combines the blocks through a temporary
buffer. :func:`gnu_sort_plan` emits that structure as a timed flow
plan for the simulated node, in DDR (the paper's "GNU-flat") or
hardware cache mode ("GNU-cache").

The GNU baseline of Table 1 (flat and cache modes).
"""

from __future__ import annotations

from typing import Callable

from repro.errors import ConfigError
from repro.algorithms.costs import DEFAULT_COST, SortCostModel, sort_levels
from repro.core.modes import UsageMode, dc_cache_split, validate_node_mode
from repro.simknl.engine import Phase, Plan, plan_template
from repro.simknl.flows import Flow
from repro.simknl.node import KNLNode, KNLNodeConfig
from repro.units import INT64


def _cache_stream_multipliers(
    node: KNLNode, working_set: float, cost: SortCostModel
) -> dict[str, float]:
    """Per-logical-byte multipliers for one streaming sweep through the
    hardware cache (read-modify-write, no reuse across sweeps)."""
    traffic = node.cache_model.stream(
        working_set, passes=1, write_fraction=0.5, cold=True
    )
    return {
        "mcdram": traffic.mcdram_bytes / working_set / cost.cache_bw_factor,
        "ddr": traffic.ddr_bytes / working_set,
    }


def _sort_stage(
    node: KNLNode,
    mode: UsageMode,
    data_bytes: float,
    levels: float,
    cost: SortCostModel,
    working_set: float | None = None,
) -> tuple[tuple, list[float]]:
    """Per-cell scalars of a divide-and-conquer sort stage.

    ``levels`` sweeps over ``data_bytes``; each sweep reads and writes
    (multiplier 2 on the home device). Under a cache-backed mode the
    first ``log2(ws / cache)`` recursion levels thrash to DDR and the
    deeper levels run at (derated) MCDRAM speed — the active-set
    argument the paper gives for MLM-implicit's tolerance of oversized
    megachunks. The two bands are *sequential* recursion depths, so
    they form separate barrier phases, not concurrent flows.

    Returns ``(stage, band_bytes)``: ``stage`` is the shape
    :func:`_stage_bands` reads — the mode, the thrash band's
    cache-stream multipliers (``None`` without a thrash band) and
    whether a cached band exists — and ``band_bytes`` the byte demand
    of each band's phase, in order.
    """
    ws = working_set if working_set is not None else data_bytes
    if mode in (UsageMode.CACHE, UsageMode.IMPLICIT):
        uncached, cached = dc_cache_split(
            node, mode, ws, levels, cost.thrash_level_offset
        )
        thrash = None
        band_bytes = []
        if uncached > 0:
            thrash = tuple(_cache_stream_multipliers(node, ws, cost).items())
            band_bytes.append(data_bytes * uncached)
        if cached > 0:
            band_bytes.append(data_bytes * cached)
        return (mode, thrash, cached > 0), band_bytes
    if mode in (UsageMode.FLAT, UsageMode.HYBRID, UsageMode.DDR):
        return (mode, None, False), [data_bytes * levels]
    raise ConfigError(f"unsupported mode {mode!r}")  # pragma: no cover


def _stage_bands(
    stage: tuple, s_sort: float, cost: SortCostModel, label: str
) -> list[tuple[str, float, dict[str, float]]]:
    """``(name, per-thread rate, multipliers)`` of each band of a sort
    stage shaped by :func:`_sort_stage`, one phase each."""
    mode, thrash, cached = stage
    if mode in (UsageMode.FLAT, UsageMode.HYBRID):
        return [(label, s_sort, {"mcdram": 2.0})]
    if mode is UsageMode.DDR:
        return [(label, s_sort, {"ddr": 2.0})]
    bands = []
    if thrash is not None:
        bands.append(
            (f"{label}/thrash", s_sort * cost.thrash_rate_factor, dict(thrash))
        )
    if cached:
        bands.append(
            (f"{label}/cached", s_sort, {"mcdram": 2.0 / cost.cache_bw_factor})
        )
    return bands


def _sort_phases(
    node: KNLNode,
    mode: UsageMode,
    data_bytes: float,
    levels: float,
    threads: int,
    s_sort: float,
    cost: SortCostModel,
    working_set: float | None = None,
    label: str = "local-sort",
) -> list[Phase]:
    """Phases of a divide-and-conquer sort stage (see :func:`_sort_stage`)."""
    stage, band_bytes = _sort_stage(
        node, mode, data_bytes, levels, cost, working_set
    )
    return [
        Phase(name, [Flow(name, threads, rate, res, nbytes)])
        for (name, rate, res), nbytes in zip(
            _stage_bands(stage, s_sort, cost, label), band_bytes
        )
    ]


def _gnu_steps(
    node_config: KNLNodeConfig,
    mode: UsageMode,
    threads: int,
    cost: SortCostModel,
    stage: tuple,
    merge_res: tuple,
) -> list:
    """The template behind :func:`gnu_sort_plan`: the sort stage's
    bands, the multiway merge into temp and the copy back, one phase
    and block each. A pure function of its arguments, the template key.
    """
    validate_node_mode(node_config, mode)

    def single(name, flow, rate, res):
        return lambda i, take: [
            Phase(name, [Flow(flow, threads, rate, dict(res), take())])
        ]

    bands = _stage_bands(stage, cost.s_sort_random, cost, "local-sort")
    steps = [single(name, name, rate, res) for name, rate, res in bands]
    steps.append(single("multiway-merge", "mwm", cost.s_merge, merge_res))
    steps.append(single("copy-back", "copy-back", cost.s_copy, merge_res))
    return steps


def gnu_sort_planner(
    node: KNLNode,
    order: str = "random",
    mode: UsageMode = UsageMode.DDR,
    threads: int = 256,
    cost: SortCostModel | None = None,
    element_size: int = INT64,
) -> Callable[[int], Plan]:
    """The group builder of GNU parallel sort baseline plans: ``plan(n)``.

    ``mode`` must be ``DDR`` (GNU-flat: data and temp in DDR) or
    ``CACHE`` (GNU-cache: same code, MCDRAM as hardware cache).

    Per distinct ``n`` this computes the sort levels, the cache split
    and the cache-stream multipliers, and looks up the template
    (:func:`_gnu_steps`) they key, built once per process; while it
    lives the planner holds them and each plan's bytes row.
    """
    if mode not in (UsageMode.DDR, UsageMode.CACHE):
        raise ConfigError("GNU baseline runs in DDR or CACHE usage modes")
    if threads < 1:
        raise ConfigError("n and threads must be positive")
    cost = cost or DEFAULT_COST
    scalars: dict[int, tuple] = {}
    label = f"gnu-{mode.value}/{order}/n="

    def plan(n: int) -> Plan:
        if n not in scalars:
            if n < 1:
                raise ConfigError("n and threads must be positive")
            nbytes = float(n * element_size)
            m = max(1.0, n / threads)
            levels = sort_levels(m, cost, order=order, gnu=True)
            # GNU keeps data + temp live, doubling the cache working set.
            ws = nbytes * cost.gnu_working_set_factor
            stage, row = _sort_stage(node, mode, nbytes, levels, cost, ws)
            # Multiway merge into temp, then copy back — both full sweeps.
            if mode is UsageMode.CACHE:
                merge_res = _cache_stream_multipliers(node, ws, cost)
            else:
                merge_res = {"ddr": 2.0}
            template = plan_template(
                _gnu_steps,
                node.config,
                mode,
                threads,
                cost,
                stage,
                tuple(merge_res.items()),
            )
            row += [nbytes, nbytes]
            row += [1] * len(row)  # one live flow per block, each block once
            scalars[n] = (template, row)
        template, row = scalars[n]
        return Plan.from_template(template, list(row), f"{label}{n}")

    return plan


def gnu_sort_plan(
    node: KNLNode,
    n: int,
    order: str = "random",
    mode: UsageMode = UsageMode.DDR,
    threads: int = 256,
    cost: SortCostModel | None = None,
    element_size: int = INT64,
) -> Plan:
    """Timed plan for the GNU parallel sort baseline: the one-cell case
    of :func:`gnu_sort_planner`."""
    return gnu_sort_planner(node, order, mode, threads, cost, element_size)(n)

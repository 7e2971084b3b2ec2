"""Figure 7: chunk-size sweep for the 6-billion-element sort.

The paper varies the megachunk size with a fixed problem size and
thread count and reports that (a) larger chunks are better in both
flat and implicit modes, (b) 1-1.5 GB chunks already give near-minimal
times, (c) hybrid tracks flat at equal chunk size, and (d) implicit
keeps improving as the megachunk exceeds MCDRAM capacity.
"""

from __future__ import annotations

from typing import Any

from repro.algorithms.costs import SortCostModel
from repro.algorithms.mlm_sort import MLMSortConfig, mlm_sort_plan
from repro.core.modes import UsageMode
from repro.experiments.runner import ExperimentResult, SeriesSpec, sweep_map
from repro.simknl.batch import PlanBatch, plan_cell
from repro.simknl.node import KNLNodeConfig, MemoryMode, boot

#: Default chunk sizes swept, in elements (0.125B .. 6B).
DEFAULT_CHUNKS = (
    125_000_000,
    250_000_000,
    500_000_000,
    1_000_000_000,
    1_500_000_000,
    1_900_000_000,
    3_000_000_000,
    6_000_000_000,
)

#: Largest chunk that fits addressable MCDRAM in flat mode (~15.2 GB of
#: the 16 GiB) and in 50 % hybrid mode.
FLAT_CHUNK_LIMIT = 2_000_000_000
HYBRID_CHUNK_LIMIT = 1_000_000_000


@plan_cell
def _variant_time(mode: UsageMode, n: int, mega: int, cost) -> PlanBatch:
    """One figure7 cell: MLM-sort's simulated seconds in ``mode``."""
    if mode is UsageMode.FLAT:
        node = boot(KNLNodeConfig(mode=MemoryMode.FLAT))
    elif mode is UsageMode.HYBRID:
        node = boot(
            KNLNodeConfig(mode=MemoryMode.HYBRID, hybrid_cache_fraction=0.5)
        )
    else:
        node = boot(KNLNodeConfig(mode=MemoryMode.CACHE))
    cfg = MLMSortConfig(n=n, megachunk_elements=mega, mode=mode)
    return PlanBatch(
        resources=tuple(node.resources()),
        plans=(mlm_sort_plan(node, cfg, cost),),
        finish=lambda runs: runs[0].elapsed,
    )


def run_figure7(
    cost: SortCostModel | None = None,
    n: int = 6_000_000_000,
    chunks: tuple[int, ...] = DEFAULT_CHUNKS,
    store: Any | None = None,
) -> ExperimentResult:
    """Time vs chunk size for MLM-sort in flat, hybrid, and implicit."""
    cells: list[tuple] = []
    labels: list[tuple[int, str]] = []
    for mega in chunks:
        if mega <= FLAT_CHUNK_LIMIT:
            cells.append((UsageMode.FLAT, n, mega, cost))
            labels.append((mega, "flat_s"))
        if mega <= HYBRID_CHUNK_LIMIT:
            cells.append((UsageMode.HYBRID, n, mega, cost))
            labels.append((mega, "hybrid_s"))
        cells.append((UsageMode.IMPLICIT, n, mega, cost))
        labels.append((mega, "implicit_s"))
    times = sweep_map(_variant_time, cells, store=store)
    by_chunk: dict[int, dict] = {
        mega: {"chunk_elements": mega} for mega in chunks
    }
    for (mega, column), t in zip(labels, times):
        by_chunk[mega][column] = t
    rows = [by_chunk[mega] for mega in chunks]
    return ExperimentResult(
        experiment="figure7",
        title=f"Figure 7: time vs chunk size, {n} int64 elements",
        columns=["chunk_elements", "flat_s", "hybrid_s", "implicit_s"],
        rows=rows,
        notes=[
            "flat is limited to chunks fitting addressable MCDRAM; hybrid "
            "(50% cache) to half of that; implicit is uncapped",
            "paper: 1-1.5 GB chunks give near-minimal times; hybrid tracks "
            "flat; implicit tolerates megachunks beyond MCDRAM",
        ],
    )


run_figure7.series_spec = SeriesSpec(
    "chunk_elements", ("flat_s", "implicit_s")
)
run_figure7.supports_store = True

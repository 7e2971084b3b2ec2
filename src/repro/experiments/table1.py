"""Table 1: raw sorting performance across algorithms, sizes, orders."""

from __future__ import annotations

from typing import Any

from repro.algorithms.costs import SortCostModel
from repro.experiments.paperdata import TABLE1_SECONDS
from repro.experiments.runner import (
    VARIANTS,
    ExperimentResult,
    sort_variant_seconds,
    sweep_map,
)


def run_table1(
    cost: SortCostModel | None = None,
    sizes: tuple[int, ...] = (2_000_000_000, 4_000_000_000, 6_000_000_000),
    orders: tuple[str, ...] = ("random", "reverse"),
    store: Any | None = None,
) -> ExperimentResult:
    """Reproduce Table 1 on the simulated node."""
    cells = [
        (variant, n, order, cost)
        for order in orders
        for n in sizes
        for variant in VARIANTS
    ]
    times = sweep_map(sort_variant_seconds, cells, store=store)
    rows = []
    for (variant, n, order, _), sim in zip(cells, times):
        paper = TABLE1_SECONDS.get((n, order, variant))
        row = {
            "elements": n,
            "order": order,
            "algorithm": variant,
            "simulated_s": sim,
            "paper_s": paper,
        }
        if paper:
            row["deviation"] = (sim - paper) / paper
        rows.append(row)
    return ExperimentResult(
        experiment="table1",
        title="Table 1: raw sorting performance (simulated KNL vs paper)",
        columns=[
            "elements",
            "order",
            "algorithm",
            "simulated_s",
            "paper_s",
            "deviation",
        ],
        rows=rows,
        notes=[
            "paper's 6B-random MLM-ddr cell (18.74 s) duplicates the 4B row "
            "and is likely a typo; ~28 s by linear scaling",
            "simulated times come from the bandwidth-contention model "
            "calibrated once against GNU-flat at 2B random",
        ],
    )


run_table1.supports_store = True

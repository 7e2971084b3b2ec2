"""Figure 6: speedups over GNU parallel sort in DDR (GNU-flat).

Fig. 6(a) covers randomized inputs, Fig. 6(b) reverse-sorted inputs.
"""

from __future__ import annotations

from typing import Any

from repro.algorithms.costs import SortCostModel
from repro.experiments.paperdata import TABLE1_SECONDS
from repro.experiments.runner import (
    VARIANTS,
    ExperimentResult,
    SeriesSpec,
    sort_variant_seconds,
    sweep_map,
)


def run_figure6(
    cost: SortCostModel | None = None,
    sizes: tuple[int, ...] = (2_000_000_000, 4_000_000_000, 6_000_000_000),
    orders: tuple[str, ...] = ("random", "reverse"),
    store: Any | None = None,
) -> ExperimentResult:
    """Speedup of each variant over GNU-flat, per size and order."""
    cells = [
        (variant, n, order, cost)
        for order in orders
        for n in sizes
        for variant in VARIANTS
    ]
    times = dict(
        zip(cells, sweep_map(sort_variant_seconds, cells, store=store))
    )
    rows = []
    for order in orders:
        for n in sizes:
            base = times[("GNU-flat", n, order, cost)]
            paper_base = TABLE1_SECONDS.get((n, order, "GNU-flat"))
            for variant in VARIANTS:
                sim = times[(variant, n, order, cost)]
                paper = TABLE1_SECONDS.get((n, order, variant))
                rows.append(
                    {
                        "panel": "6a" if order == "random" else "6b",
                        "elements": n,
                        "order": order,
                        "algorithm": variant,
                        "speedup": base / sim,
                        "paper_speedup": (
                            paper_base / paper if paper and paper_base else None
                        ),
                    }
                )
    return ExperimentResult(
        experiment="figure6",
        title="Figure 6: speedup over GNU-flat",
        columns=[
            "panel",
            "elements",
            "order",
            "algorithm",
            "speedup",
            "paper_speedup",
        ],
        rows=rows,
        notes=[
            "paper headline: 1.6-1.9x for the best MLM variant over GNU-flat"
        ],
    )


run_figure6.series_spec = SeriesSpec("algorithm", ("speedup",))
run_figure6.supports_store = True

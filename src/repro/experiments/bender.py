"""Corroboration of Bender et al.'s co-design predictions.

The paper's first contribution is corroborating, on real hardware,
the simulation results of Bender et al. [4]: a chunking sort should
gain roughly 30 % over the unchunked baseline and cut DDR traffic by
about 2.5x. We run the basic buffered chunked sort against GNU-flat
on the simulated node and report both ratios, plus the Snir-style
bandwidth-boundedness check that underpins the whole premise.

Backs the Bender-corroboration rows of the Section 5 evaluation.
"""

from __future__ import annotations

from typing import Any

from repro.algorithms.costs import SortCostModel
from repro.algorithms.mlm_sort import basic_chunked_sort_plan
from repro.algorithms.parallel_sort import gnu_sort_plan
from repro.core.modes import UsageMode
from repro.experiments.paperdata import (
    BENDER_PREDICTED_DDR_TRAFFIC_REDUCTION,
    BENDER_PREDICTED_SPEEDUP,
)
from repro.experiments.runner import ExperimentResult, sweep_map
from repro.model.roofline import sort_is_bandwidth_bound
from repro.simknl.batch import PlanBatch, plan_cell
from repro.simknl.node import KNLNodeConfig, MemoryMode, boot
from repro.units import GB


@plan_cell
def _bender_cell(
    n: int, chunk_elements: int, cost: SortCostModel | None
) -> PlanBatch:
    """GNU-flat and the basic chunked sort on one flat node:
    ``(gnu_s, gnu_ddr_bytes, basic_s, basic_ddr_bytes)``."""
    node = boot(KNLNodeConfig(mode=MemoryMode.FLAT))
    return PlanBatch(
        resources=node.resources(),
        plans=(
            gnu_sort_plan(node, n, "random", UsageMode.DDR, cost=cost),
            basic_chunked_sort_plan(node, n, chunk_elements, cost=cost),
        ),
        finish=lambda runs: (
            runs[0].elapsed,
            runs[0].traffic["ddr"],
            runs[1].elapsed,
            runs[1].traffic["ddr"],
        ),
    )


def run_bender(
    n: int = 2_000_000_000,
    chunk_elements: int = 600_000_000,
    cost: SortCostModel | None = None,
    store: Any | None = None,
) -> ExperimentResult:
    """Basic chunked sort vs unchunked GNU-flat: speedup and traffic."""
    ((gnu_s, gnu_ddr, basic_s, basic_ddr),) = sweep_map(
        _bender_cell, [(n, chunk_elements, cost)], store=store
    )
    speedup = gnu_s / basic_s
    traffic_ratio = gnu_ddr / basic_ddr
    bandwidth_bound = sort_is_bandwidth_bound(
        n=n,
        element_size=8,
        compare_ops_per_element_pass=8.0,
        passes=30.0,
        peak_ops=68 * 1.4e9 * 2,
        bandwidth=90 * GB,
    )
    rows = [
        {
            "metric": "chunking speedup over GNU-flat",
            "simulated": speedup,
            "bender_prediction": BENDER_PREDICTED_SPEEDUP,
        },
        {
            "metric": "DDR traffic reduction",
            "simulated": traffic_ratio,
            "bender_prediction": BENDER_PREDICTED_DDR_TRAFFIC_REDUCTION,
        },
        {
            "metric": "sort is memory-bandwidth bound (Snir test)",
            "simulated": float(bandwidth_bound),
            "bender_prediction": 1.0,
        },
    ]
    return ExperimentResult(
        experiment="bender",
        title="Corroboration of Bender et al. (chunked vs unchunked sort)",
        columns=["metric", "simulated", "bender_prediction"],
        rows=rows,
        notes=[
            "traffic reduction exceeds Bender's 2.5x because the baseline's "
            "effective-level calibration routes all level traffic to DDR "
            "(the simulator has no L2 absorbing deep recursion levels)",
            f"GNU-flat: {gnu_s:.2f}s / {gnu_ddr / 1e9:.0f} GB DDR; "
            f"basic chunked: {basic_s:.2f}s / {basic_ddr / 1e9:.0f} GB DDR",
        ],
    )


run_bender.supports_store = True

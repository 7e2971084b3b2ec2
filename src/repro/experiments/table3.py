"""Table 3: optimal number of copy threads, model vs empirical."""

from __future__ import annotations

from typing import Any

from repro.algorithms.merge_bench import pick_optimal_copy_threads
from repro.experiments.figure8 import _figure8_cell
from repro.experiments.paperdata import TABLE3_OPTIMAL
from repro.experiments.runner import ExperimentResult, sweep_map
from repro.model.optimizer import optimal_copy_threads
from repro.model.params import ModelParams

#: The paper's empirical candidates: powers of two, 1..32.
_CANDIDATES = (1, 2, 4, 8, 16, 32)


def run_table3(
    repeats: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64),
    total_threads: int = 256,
    store: Any | None = None,
) -> ExperimentResult:
    """Model-predicted and simulator-empirical optimal copy threads.

    The empirical column reads Fig. 8's merge-bench cells
    (:func:`~repro.experiments.figure8._figure8_cell`) at the six
    candidate copy-thread counts, so in one process whichever of the
    two drivers runs second is served from the memo.
    """
    params = ModelParams()
    cells = [(r, p, total_threads) for r in repeats for p in _CANDIDATES]
    times = iter(sweep_map(_figure8_cell, cells, store=store))
    rows = []
    for r in repeats:
        empirical = {p: next(times)[1] for p in _CANDIDATES}
        model_p = optimal_copy_threads(params, total_threads, passes=r).p_in
        paper_model, paper_emp = TABLE3_OPTIMAL.get(r, (None, None))
        rows.append(
            {
                "repeats": r,
                "model": int(model_p),
                "paper_model": paper_model,
                "empirical_pow2": int(pick_optimal_copy_threads(empirical)),
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

"""Experiment drivers: one module per paper table/figure.

Each driver returns an :class:`~repro.experiments.runner.ExperimentResult`
holding the rows the paper reports plus, where available, the paper's
own numbers for side-by-side comparison. The drivers are thin: all the
machinery lives in the library; these modules only wire configurations
together and format output.

=============  ====================================================
``table1``     Raw sort times, 5 algorithms x 3 sizes x 2 orders
``figure6``    Speedups over GNU-flat (Fig. 6a random, 6b reverse)
``figure7``    Time vs chunk size at 6 B elements (Fig. 7)
``table2``     Model parameters measured via STREAM (Table 2)
``table3``     Optimal copy threads, model vs empirical (Table 3)
``figure8``    Merge-benchmark time vs copy threads (Fig. 8a/8b)
``bender``     Corroboration of Bender et al.'s predictions
=============  ====================================================
"""

from repro.experiments.runner import (
    ExperimentResult,
    replay_session,
    sort_variant_seconds,
)
from repro.experiments.table1 import run_table1
from repro.experiments.figure6 import run_figure6
from repro.experiments.figure7 import run_figure7
from repro.experiments.table2 import run_table2
from repro.experiments.table3 import run_table3
from repro.experiments.figure8 import run_figure8
from repro.experiments.bender import run_bender
from repro.experiments.pareto import run_pareto
from repro.experiments.extensions import (
    run_ablation,
    run_adaptive,
    run_designspace,
    run_energy,
    run_external,
    run_faults,
    run_hybrid,
    run_pollution,
    run_nvm,
    run_oblivious,
)

#: The paper's published artifacts.
PAPER_EXPERIMENTS = {
    "table1": run_table1,
    "figure6": run_figure6,
    "figure7": run_figure7,
    "table2": run_table2,
    "table3": run_table3,
    "figure8": run_figure8,
    "bender": run_bender,
}

#: Future-work and ablation extensions.
EXTENSION_EXPERIMENTS = {
    "nvm": run_nvm,
    "designspace": run_designspace,
    "hybrid": run_hybrid,
    "ablation": run_ablation,
    "oblivious": run_oblivious,
    "energy": run_energy,
    "external": run_external,
    "pollution": run_pollution,
    "adaptive": run_adaptive,
    "faults": run_faults,
    "pareto": run_pareto,
}

ALL_EXPERIMENTS = {**PAPER_EXPERIMENTS, **EXTENSION_EXPERIMENTS}


def __getattr__(name: str):
    # The store's re-exports load on first use, like the store itself.
    if name in ("ResultStore", "get_store"):
        from repro.experiments import store

        return getattr(store, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ExperimentResult",
    "ResultStore",
    "get_store",
    "replay_session",
    "sort_variant_seconds",
    "run_table1",
    "run_figure6",
    "run_figure7",
    "run_table2",
    "run_table3",
    "run_figure8",
    "run_bender",
    "run_nvm",
    "run_designspace",
    "run_hybrid",
    "run_ablation",
    "run_oblivious",
    "run_energy",
    "run_external",
    "run_faults",
    "run_pollution",
    "run_adaptive",
    "run_pareto",
    "PAPER_EXPERIMENTS",
    "EXTENSION_EXPERIMENTS",
    "ALL_EXPERIMENTS",
]

"""Table 2: model parameters, re-measured on the simulated node.

The paper obtained DDR/MCDRAM ceilings from STREAM and the per-thread
rates from micro-measurements; we run the same procedure against the
simulator and report both alongside the published values. The
measurement runs as a single :func:`~repro.experiments.runner.sweep_map`
cell so its result lands in the sweep memo and the on-disk
result store like every other experiment cell — `repro-knl replay
table2` re-renders the table with zero measurement runs.
"""

from __future__ import annotations

from typing import Any

from repro.experiments.paperdata import TABLE2_PARAMS
from repro.experiments.runner import ExperimentResult, sweep_map
from repro.simknl.batch import PlanBatch, plan_cell
from repro.simknl.node import KNLNodeConfig, MemoryMode, boot
from repro.units import GB

#: Parameter order of the measurement cell's result tuple.
_PARAM_KEYS = ("B_copy", "DDR_max", "MCDRAM_max", "S_copy", "S_comp")


@plan_cell
def _table2_cell() -> PlanBatch:
    """Measure the five model parameters, in ``_PARAM_KEYS`` order.

    The measurement is four engine plans: two STREAM triads (bandwidth
    ceilings) plus the two single-thread micro-runs (per-thread rates),
    divided back into rates by ``finish``."""
    from repro.algorithms.stream import micro_rate_plans, stream_triad_plan

    node = boot(KNLNodeConfig(mode=MemoryMode.FLAT))
    ddr_plan = stream_triad_plan(node, device="ddr")
    mc_plan = stream_triad_plan(node, device="mcdram")
    copy_plan, comp_plan, nbytes = micro_rate_plans(node)

    def finish(runs):
        ddr_r, mc_r, copy_r, comp_r = runs
        return (
            float(14.9 * GB),
            float(ddr_plan.total_bytes / ddr_r.elapsed),
            float(mc_plan.total_bytes / mc_r.elapsed),
            float(nbytes / copy_r.elapsed),
            float(nbytes / comp_r.elapsed),
        )

    return PlanBatch(
        resources=tuple(node.resources()),
        plans=(ddr_plan, mc_plan, copy_plan, comp_plan),
        finish=finish,
    )


def run_table2(store: Any | None = None) -> ExperimentResult:
    """Measure B_copy/DDR_max/MCDRAM_max/S_copy/S_comp."""
    (values,) = sweep_map(_table2_cell, [()], store=store)
    measured = dict(zip(_PARAM_KEYS, values))
    descriptions = {
        "B_copy": "data size (GB)",
        "DDR_max": "max DDR bandwidth, STREAM (GB/s)",
        "MCDRAM_max": "max MCDRAM bandwidth, STREAM (GB/s)",
        "S_copy": "per-thread DDR<->MCDRAM copy rate (GB/s)",
        "S_comp": "per-thread compute streaming rate (GB/s)",
    }
    rows = []
    for key, paper_v in TABLE2_PARAMS.items():
        rows.append(
            {
                "parameter": key,
                "measured_gb": measured[key] / 1e9,
                "paper_gb": paper_v / 1e9,
                "description": descriptions[key],
            }
        )
    return ExperimentResult(
        experiment="table2",
        title="Table 2: model parameters (measured on simulator vs paper)",
        columns=["parameter", "measured_gb", "paper_gb", "description"],
        rows=rows,
        notes=[
            "bandwidth ceilings measured by running STREAM-triad on the "
            "simulated node; per-thread rates from single-stream runs "
            "bounded by memory-level parallelism"
        ],
    )


run_table2.supports_store = True

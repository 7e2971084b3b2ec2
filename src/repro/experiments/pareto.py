"""Pareto exploration of mode x chunk x thread-split x device configs.

The paper optimizes execution time alone; its introduction motivates
multilevel memory with energy as well. This driver sweeps the joint
space — usage mode, chunk size, copy-thread split, and a hypothetical
MCDRAM bandwidth scaling — runs every configuration on the simulated
node, prices each run with the energy model (faster MCDRAM stacks pay
proportionally more idle power), and reports the Pareto front over
(time, joules, EDP). The whole sweep lowers to the cross-cell fast
path: every cell is a static- or dynamic-phase pipeline plan, so
structurally identical cells evaluate as one batch (a few plans each,
row by row in plain floats).
"""

from __future__ import annotations

from typing import Any

from repro.core.buffering import BufferedPipeline
from repro.core.chunking import Chunker
from repro.core.kernel import StreamKernel
from repro.core.modes import UsageMode
from repro.errors import ConfigError
from repro.experiments.runner import ExperimentResult, sweep_map
from repro.model.designspace import pareto_front
from repro.simknl.batch import PlanBatch, plan_cell
from repro.simknl.energy import (
    DEFAULT_ENERGY_PER_BYTE,
    DEFAULT_IDLE_POWER,
    EnergyModel,
)
from repro.simknl.engine import RunResult
from repro.simknl.node import KNLNodeConfig, MemoryMode, boot
from repro.threads.pool import PoolSet
from repro.units import GB, GiB, MiB

#: Compute passes per chunk for the swept kernel (a merge-class
#: intensity where copy/compute are of the same order).
_PASSES = 4.0

_BOOT_MODES = {
    "flat": MemoryMode.FLAT,
    "implicit": MemoryMode.CACHE,
    "ddr": MemoryMode.FLAT,
}


def _pareto_pipeline(
    mode_value: str,
    data_gib: float,
    chunk_mib: int,
    copy_threads: int,
    mcdram_scale: float,
) -> BufferedPipeline:
    """Assemble the pipeline behind one design-space cell."""
    bios = _BOOT_MODES.get(mode_value)
    if bios is None:
        raise ConfigError(f"unknown pareto mode {mode_value!r}")
    mode = UsageMode(mode_value)
    node = boot(
        KNLNodeConfig(mode=bios, mcdram_bandwidth=400 * GB * mcdram_scale)
    )
    if mode is UsageMode.FLAT:
        pools = PoolSet.split(
            node,
            compute=node.total_threads - 2 * copy_threads,
            copy_in=copy_threads,
        )
    else:
        pools = PoolSet.compute_only(node)
    chunker = Chunker(int(data_gib * GiB), int(chunk_mib * MiB))
    return BufferedPipeline(
        node, mode, pools, chunker, StreamKernel(passes=_PASSES)
    )


@plan_cell
def _pareto_cell(
    mode_value: str,
    data_gib: float,
    chunk_mib: int,
    copy_threads: int,
    mcdram_scale: float,
) -> PlanBatch:
    """One configuration's raw measurements: ``(elapsed, traffic)``.

    Energy conversion happens in the parent (idle power depends on the
    cell's MCDRAM scaling, so :meth:`EnergyModel.report_many` prices
    each scaling's runs with that scaling's model).
    """
    pipe = _pareto_pipeline(
        mode_value, data_gib, chunk_mib, copy_threads, mcdram_scale
    )
    return PlanBatch(
        resources=tuple(pipe.node.resources()),
        plans=(pipe.prepare(),),
        finish=lambda runs: (runs[0].elapsed, dict(runs[0].traffic)),
    )


def _energy_model(mcdram_scale: float) -> EnergyModel:
    """Energy model for a node whose MCDRAM stack is scaled: both the
    per-byte access energy and the background power grow with the
    stack's width/clock, linearly to first order — the classic
    bandwidth-vs-energy silicon trade."""
    per_byte = dict(DEFAULT_ENERGY_PER_BYTE)
    per_byte["mcdram"] = per_byte["mcdram"] * mcdram_scale
    idle = dict(DEFAULT_IDLE_POWER)
    idle["mcdram"] = idle["mcdram"] * mcdram_scale
    return EnergyModel(energy_per_byte=per_byte, idle_power=idle)


def run_pareto(
    data_gib: float = 24.0,
    chunks_mib: tuple[int, ...] = (256, 512, 1024, 2048),
    copy_threads: tuple[int, ...] = (4, 8, 16),
    mcdram_scales: tuple[float, ...] = (0.5, 1.0, 2.0),
    store: Any | None = None,
) -> ExperimentResult:
    """Pareto front over (time, energy, EDP) for the joint design space.

    Flat mode sweeps chunk size x copy threads; implicit sweeps chunk
    size (no copy pools); DDR is the chunking-free floor. Every
    combination runs at each MCDRAM bandwidth scaling.
    """
    if not (chunks_mib and copy_threads and mcdram_scales):
        raise ConfigError("chunk, copy-thread, and scale sweeps must be non-empty")
    cells: list[tuple] = []
    for scale in mcdram_scales:
        for mib in chunks_mib:
            for p in copy_threads:
                cells.append(("flat", data_gib, mib, p, scale))
            cells.append(("implicit", data_gib, mib, 0, scale))
        # DDR never chunks: one whole-data "chunk".
        cells.append(("ddr", data_gib, int(data_gib * GiB) // MiB, 0, scale))
    raw = sweep_map(_pareto_cell, cells, store=store)
    # Energy pricing: one report_many per MCDRAM scaling (idle power
    # differs per scale).
    reports: dict[int, Any] = {}
    for scale in mcdram_scales:
        idx = [i for i, c in enumerate(cells) if c[4] == scale]
        runs = [
            RunResult(elapsed=raw[i][0], traffic=raw[i][1], phase_times=[])
            for i in idx
        ]
        model = _energy_model(scale)
        for i, rep in zip(idx, model.report_many(runs)):
            reports[i] = rep
    objectives = [
        (raw[i][0], reports[i].total_joules, reports[i].energy_delay_product)
        for i in range(len(cells))
    ]
    front = pareto_front(objectives)
    rows = [
        {
            "mode": mode,
            "chunk_mib": mib,
            "copy_threads": p,
            "mcdram_scale": scale,
            "seconds": objectives[i][0],
            "energy_j": objectives[i][1],
            "edp_js": objectives[i][2],
            "pareto": bool(front[i]),
        }
        for i, (mode, _, mib, p, scale) in enumerate(cells)
    ]
    return ExperimentResult(
        experiment="pareto",
        title=f"Extension: (time, energy, EDP) Pareto front, "
        f"{data_gib:g} GiB streamed x{_PASSES:g}",
        columns=[
            "mode",
            "chunk_mib",
            "copy_threads",
            "mcdram_scale",
            "seconds",
            "energy_j",
            "edp_js",
            "pareto",
        ],
        rows=rows,
        notes=[
            "objectives minimized jointly; 'pareto' marks undominated rows",
            "MCDRAM access energy and idle power scale with the "
            "hypothetical bandwidth scaling, so faster stacks trade "
            "energy for time",
            "the sweep lowers to the cross-cell tensor path: structurally "
            "identical cells evaluate as one NumPy batch",
        ],
    )


run_pareto.supports_store = True

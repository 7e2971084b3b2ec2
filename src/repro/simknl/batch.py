"""Tensor evaluation of plans: one NumPy evaluation for a whole sweep.

The paper's sweeps (Table 1, Figures 6-8) evaluate thousands of cells
that differ only in sizes and rates over a structurally identical plan.
A plan holds its pipeline steady state as one repeated block
(:class:`~repro.simknl.engine.Block`); this module stacks N plans with
the same block structure and live-flow signatures (only
``bytes_total`` and repeat counts varying) into one ``(cells x
columns)`` tensor — live-flow byte demands plus one repeat-count
column per block — and evaluates it with a handful of vectorized ops:
one water-filling solve per template phase, broadcast per-cell phase
times, cumsum time and traffic accumulation. :meth:`Engine.run` uses
the same evaluation as a one-row tensor for a plan with a repeated
block.

Bit-identity with the per-phase reference loop of :meth:`Engine.run`
(the oracle) rests on three facts:

* a memoized water-filling solve is positionally bit-identical to a
  re-solve for equal structural signatures;
* ``max``/``min`` folds over floats are exact, and ``np.cumsum``'s
  strict left-to-right association reproduces the reference ``+=``
  chains bit for bit — a block repeated ``k`` times contributes ``k``
  additions, never one ``k * t``;
* zero-padding is bitwise neutral — ``x + 0.0 == x`` for the finite
  non-negative totals the engine accumulates — which is what lets
  rectangular arrays cover cells with fewer repetitions and phases
  whose flows finish early.

Anything the tensor cannot express — event recording, starved
allocations, rounds where some phase completes no flow — falls back to
the reference loop, per plan. Telemetry never does: every run, on
either path, is recorded afterwards from its :class:`RunResult` by
:func:`~repro.simknl.engine.observe`.

:func:`evaluate_plan_batch` is the sweep-level entry point used by
``experiments.runner.sweep_map``: drivers declare structural
batchability by attaching a :class:`PlanBatchSpec` to their cell
function, whose ``build`` lowers one cell to plans plus a ``finish``
post-processor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from repro.errors import PlanError
from repro.simknl.engine import _EPS, Engine, Plan, RunResult, observe
from repro.simknl.flows import Flow, Resource
from repro.telemetry.runtime import Telemetry, telemetry_session

__all__ = [
    "PlanBatch",
    "PlanBatchSpec",
    "LoweredSweep",
    "batched_dynamic",
    "evaluate_plan_batch",
    "lower_plans",
    "lower_template",
    "run_batch",
    "run_lowered",
]


def _resource_columns(
    flows: Sequence[Flow],
) -> list[tuple[str, list[int], np.ndarray]]:
    """Per-resource ``(name, flow columns, multipliers)`` triples, in
    the reference loop's first-touch order (columns ascending)."""
    seen: dict[str, list[int]] = {}
    for j, f in enumerate(flows):
        for name in f.resources:
            seen.setdefault(name, []).append(j)
    return [
        (
            name,
            cols,
            np.array([flows[j].resources[name] for j in cols], dtype=np.float64),
        )
        for name, cols in seen.items()
    ]


def batched_dynamic(
    flows: Sequence[Flow],
    bytes_matrix: np.ndarray,
    allocate: Callable[[list[Flow]], list[float]],
) -> tuple[np.ndarray, list[tuple[str, np.ndarray]]] | None:
    """Advance N independent dynamic event loops in lock-step rounds.

    Each row of ``bytes_matrix`` is one dynamic phase (or one cell's
    instance of a phase) over the live-flow template ``flows``. Round
    ``i`` performs every row's ``i``-th event-loop iteration at once:
    rows are grouped by their set of still-live flows, one (memoized)
    water-filling solve covers each group, and the per-row step time is
    the exact ``min`` fold ``rem / rate`` of the reference loop. Each
    round retires at least one flow per active row, so there are at
    most ``len(flows)`` rounds regardless of row count.

    Returns ``(times, chains)`` where ``times`` is the per-row elapsed
    seconds and ``chains`` holds, per resource, the ``(rows, rounds *
    touching-flows)`` traffic contributions in the reference loop's
    accumulation order (zero-filled where a flow was already done —
    bitwise neutral under ``+=``). Returns ``None`` — caller falls back
    to the reference loop — when any row would starve (zero aggregate
    rate, or a step too long to be finite) or complete no flow in a
    round, so the reference path raises the exact
    :class:`~repro.errors.SimulationError`. One live flow takes the
    loop's single round directly (:func:`_single_flow`).
    """
    n, k = bytes_matrix.shape
    if k == 0:
        return np.zeros(n, dtype=np.float64), []
    if k == 1:
        return _single_flow(flows[0], bytes_matrix, allocate)
    rem = bytes_matrix.astype(np.float64, copy=True)
    thresh = _EPS * np.maximum(1.0, rem)
    alive = np.ones((n, k), dtype=bool)
    elapsed = np.zeros(n, dtype=np.float64)
    res_cols = _resource_columns(flows)
    chains: dict[str, list[np.ndarray]] = {name: [] for name, _, _ in res_cols}

    for _ in range(k):
        active = alive.any(axis=1)
        if not active.any():
            break
        moved_round = np.zeros((n, k), dtype=np.float64)
        dt_round = np.zeros(n, dtype=np.float64)
        groups: dict[bytes, list[int]] = {}
        for i in np.nonzero(active)[0]:
            groups.setdefault(alive[i].tobytes(), []).append(int(i))
        for mask_key, rows in groups.items():
            idx = np.nonzero(np.frombuffer(mask_key, dtype=bool))[0]
            rates = np.asarray(
                allocate([flows[j] for j in idx]), dtype=np.float64
            )
            pos = rates > 0.0
            if not pos.any():
                return None  # zero aggregate rate: reference raises
            cells = np.ix_(rows, idx)
            sub_rem = rem[cells]
            dt = (sub_rem[:, pos] / rates[pos]).min(axis=1)
            if not (dt < np.inf).all():
                return None  # no finite step (starved): reference raises
            moved = rates * dt[:, None]
            new_rem = np.maximum(0.0, sub_rem - moved)
            finished = new_rem <= thresh[cells]
            if not finished.any(axis=1).all():
                return None  # a row completed nothing: reference raises
            rem[cells] = new_rem
            alive[cells] = ~finished
            moved_round[cells] = moved
            dt_round[rows] = dt
        elapsed += dt_round
        for name, cols, mults in res_cols:
            chains[name].append(moved_round[:, cols] * mults)
    if alive.any():
        return None  # exceeded iteration bound: reference raises

    out = [
        (name, np.concatenate(chains[name], axis=1))
        for name, _, _ in res_cols
        if chains[name]
    ]
    return elapsed, out


def _single_flow(
    flow: Flow,
    bytes_matrix: np.ndarray,
    allocate: Callable[[list[Flow]], list[float]],
) -> tuple[np.ndarray, list[tuple[str, np.ndarray]]] | None:
    """:func:`batched_dynamic` for one live flow: the lock-step loop's
    single round over its single group, done directly. Same arithmetic
    on the same operands, so bit-identical to the loop."""
    (rate,) = allocate([flow])
    if rate <= 0.0:
        return None  # zero aggregate rate: reference raises
    rem = bytes_matrix[:, 0].astype(np.float64)
    dt = rem / rate
    if not (dt < np.inf).all():
        return None  # no finite step (starved): reference raises
    moved = rate * dt
    if not (np.maximum(0.0, rem - moved) <= _EPS * np.maximum(1.0, rem)).all():
        return None  # a row completed nothing: reference raises
    return dt, [
        (name, moved[:, None] * mult) for name, mult in flow.resources.items()
    ]


# ---- cross-cell lowering ------------------------------------------------


@dataclass
class _LoweredPhase:
    """One template phase: its live flows, the ``[lo, hi)`` column slice
    they occupy in the bytes tensor, and the per-resource columns."""

    static: bool
    flows: list[Flow]
    lo: int
    hi: int
    resource_cols: list[tuple[str, list[int], np.ndarray]]


@dataclass
class LoweredSweep:
    """A sweep's shared shape: block structure plus tensor layout.

    Pair with a ``(cells, width)`` tensor — per cell one row: first
    ``slots`` columns of live-flow byte demands over the block
    templates in plan order, then one repeat-count column per block —
    and feed both to :func:`run_lowered`. ``blocks`` holds each
    block's ``[lo, hi)`` range into ``phases``.
    """

    structure: tuple
    phases: list[_LoweredPhase]
    blocks: list[tuple[int, int]]
    slots: int
    width: int


def lower_template(plan: Plan) -> LoweredSweep:
    """Build the shared :class:`LoweredSweep` shape from one plan."""
    phases: list[_LoweredPhase] = []
    blocks: list[tuple[int, int]] = []
    lo = 0
    for block in plan.blocks:
        first = len(phases)
        for ph in block.phases:
            live = [f for f in ph.flows if f.bytes_total > 0]
            hi = lo + len(live)
            phases.append(
                _LoweredPhase(
                    ph.static_rates, live, lo, hi, _resource_columns(live)
                )
            )
            lo = hi
        blocks.append((first, len(phases)))
    return LoweredSweep(
        structure=plan.structure(),
        phases=phases,
        blocks=blocks,
        slots=lo,
        width=lo + len(blocks),
    )


def lower_plans(plans: Sequence[Plan]) -> tuple[LoweredSweep, np.ndarray]:
    """Stack N structurally identical plans into one tensor.

    The first plan is the structural template. Each plan contributes
    one row: its block templates' live-flow byte demands in plan order,
    then its blocks' repeat counts, so plans that differ only in chunk
    count share one shape. The tensor is the sweep's entire variable
    state — 8 bytes per live flow slot and per block, per cell.
    """
    lowered = lower_template(plans[0])
    tensor = np.empty((len(plans), lowered.width), dtype=np.float64)
    for c, plan in enumerate(plans):
        row = [
            f.bytes_total
            for block in plan.blocks
            for ph in block.phases
            for f in ph.flows
            if f.bytes_total > 0
        ]
        row.extend(block.repeat for block in plan.blocks)
        tensor[c] = row
    return lowered, tensor


def _repeat_columns(
    x: np.ndarray, keep: np.ndarray
) -> np.ndarray:
    """``x``'s columns (one repetition) laid out once per column of the
    ``(cells, most)`` mask ``keep``, zeroed where ``keep`` is False (a
    row repeated fewer times than ``most``). The zeros are bitwise
    neutral in the running sums: ``t + 0.0 == t`` for the engine's
    finite non-negative totals."""
    most = keep.shape[1]
    if most == 1:
        return x
    out = np.tile(x, (1, most))
    if not keep.all():
        out[np.repeat(~keep, x.shape[1], axis=1)] = 0.0
    return out


def run_lowered(
    engine: Engine, lowered: LoweredSweep, tensor: np.ndarray
) -> list[RunResult] | None:
    """Evaluate a lowered sweep: one :class:`RunResult` per tensor row.

    This is the tensor evaluation proper — per template phase one
    (memoized) water-filling solve, per-cell phase times as a broadcast
    row-max (static) or the segmented event batch (dynamic). A block
    repeated ``k`` times lays its columns out ``k`` times, so the
    elapsed clock and per-resource traffic still advance by ``k``
    sequential float additions in the carry-in cumsums — never by
    ``k * t``, which rounds differently. Returns ``None`` when any
    phase needs the reference path (starved rates, a no-completion
    round, or a non-positive tensor entry, which would change liveness);
    callers with the original plans fall back to per-cell ``run``.

    Raises :class:`~repro.errors.PlanError` if the engine itself is
    ineligible (event recording, ``batch_phases=False``) — with only
    the tensor there is nothing to fall back to, so the caller must
    check first (:func:`run_batch` does). The results are not
    observed; that is the caller's job.
    """
    if not engine._tensor_eligible():
        raise PlanError(
            "run_lowered requires a batch-eligible engine (no event "
            "recording, batch_phases=True)"
        )
    if tensor.ndim != 2 or tensor.shape[1] != lowered.width:
        raise PlanError(
            f"tensor has shape {tensor.shape}, expected "
            f"(cells, {lowered.width})"
        )
    if not (tensor > 0.0).all():
        return None  # a zero-byte slot changes liveness: reference path
    cells = tensor.shape[0]
    times = np.zeros((cells, len(lowered.phases)), dtype=np.float64)
    contribs: list[list[tuple[str, np.ndarray]]] = []
    for pi, ph in enumerate(lowered.phases):
        if ph.hi == ph.lo:
            contribs.append([])  # no live flows: zero time, no traffic
            continue
        sub = tensor[:, ph.lo:ph.hi]
        if ph.static:
            rates = np.asarray(engine._allocate(ph.flows), dtype=np.float64)
            if np.any(rates <= 0.0):
                return None  # starved static flow: reference raises
            times[:, pi] = (sub / rates).max(axis=1)
            contribs.append(
                [
                    (name, sub[:, cols] * mults)
                    for name, cols, mults in ph.resource_cols
                ]
            )
        else:
            out = batched_dynamic(ph.flows, sub, engine._allocate)
            if out is None:
                return None
            times[:, pi] = out[0]
            contribs.append(out[1])

    # Lay the blocks out in plan order: repetitions become columns, so
    # the cumsums below add every phase's time and traffic in turn.
    repeats = tensor[:, lowered.slots:].astype(np.int64)
    zero = np.zeros((cells, 1), dtype=np.float64)
    ticks: list[np.ndarray] = [zero]
    chains: dict[str, list[np.ndarray]] = {
        name: [zero] for name in engine.resources
    }
    valid: list[np.ndarray] = []
    for b, (lo, hi) in enumerate(lowered.blocks):
        reps = repeats[:, b]
        keep = np.arange(int(reps.max()))[None, :] < reps[:, None]
        ticks.append(_repeat_columns(times[:, lo:hi], keep))
        valid.append(np.repeat(keep, hi - lo, axis=1))
        per_resource: dict[str, list[np.ndarray]] = {}
        for parts in contribs[lo:hi]:
            for name, part in parts:
                per_resource.setdefault(name, []).append(part)
        for name, parts in per_resource.items():
            chains[name].append(
                _repeat_columns(np.concatenate(parts, axis=1), keep)
            )

    timeline = np.concatenate(ticks, axis=1)
    elapsed = np.cumsum(timeline, axis=1)[:, -1]
    totals = {
        name: np.cumsum(np.concatenate(parts, axis=1), axis=1)[:, -1]
        for name, parts in chains.items()
        if len(parts) > 1
    }
    steps = timeline[:, 1:]
    mask = np.concatenate(valid, axis=1) if valid else None
    padded = mask is not None and not mask.all()

    results = []
    for c in range(cells):
        traffic = {
            name: float(totals[name][c]) if name in totals else 0.0
            for name in engine.resources
        }
        row = steps[c][mask[c]] if padded else steps[c]
        results.append(
            RunResult(
                elapsed=float(elapsed[c]),
                traffic=traffic,
                phase_times=row.tolist(),
                events=[],
            )
        )
    return results


def run_batch(engine: Engine, plans: Sequence[Plan]) -> list[RunResult]:
    """Run N structurally identical plans as one tensor evaluation.

    Bit-identical to ``[engine.run(p) for p in plans]``, telemetry
    included: tensor results are recorded by
    :func:`~repro.simknl.engine.observe` in plan order, just as the
    sequential runs record themselves. Falls back to exactly that
    sequential loop when the engine is ineligible (event recording,
    ``batch_phases=False``), when there is only one plan, or when the
    tensor evaluation declines (starved allocation, no-completion
    round) — in which case the reference path also raises the precise
    per-phase :class:`~repro.errors.SimulationError` the serial caller
    would have seen.

    Raises :class:`~repro.errors.PlanError` if the plans do not share
    one block structure (use :meth:`Plan.structure` to pre-group).
    """
    plans = list(plans)
    if not plans:
        return []
    for p in plans:
        p.validate()
    if len(plans) == 1 or not engine._tensor_eligible():
        return [engine.run(p) for p in plans]
    structure = plans[0].structure()
    for p in plans[1:]:
        if p.structure() != structure:
            raise PlanError(
                f"run_batch: plan {p.name!r} does not share the batch's "
                "block structure"
            )
    results = run_lowered(engine, *lower_plans(plans))
    if results is None:
        return [engine.run(p) for p in plans]
    for plan, result in zip(plans, results):
        observe(plan, result)
    return results


# ---- sweep integration --------------------------------------------------


@dataclass
class PlanBatch:
    """One sweep cell lowered to engine work.

    Attributes
    ----------
    resources:
        The cell's node resources, in the node's order (one shared
        engine is created per distinct resource tuple, so structurally
        identical cells share memoized solves).
    plans:
        The plans whose runs the cell needs, in a fixed order.
    finish:
        Maps the plans' :class:`RunResult` list (same order) to the
        cell function's return value.
    """

    resources: Sequence[Resource]
    plans: Sequence[Plan]
    finish: Callable[[list[RunResult]], Any]


@dataclass(frozen=True)
class PlanBatchSpec:
    """Declares a cell function structurally batchable.

    Attach as a ``plan_batch`` attribute on the cell function.
    ``build(*cell)`` must replicate the cell function's configuration
    work — including raising the same validation errors — and return a
    :class:`PlanBatch`, or ``None`` to send that cell down the normal
    serial path (the escape hatch for cells whose work a plan run
    cannot express).
    """

    build: Callable[..., PlanBatch | None]


def evaluate_plan_batch(
    spec: PlanBatchSpec, cells: Sequence[tuple]
) -> tuple[list[Any], list[int]]:
    """Evaluate sweep cells via cross-cell tensor batching.

    Builds every cell's :class:`PlanBatch`, groups all resulting plans
    by ``(resource tuple, plan structure)``, evaluates each group with
    :func:`run_batch` on a shared per-resource-tuple engine, and feeds
    each cell's results to its ``finish``. Returns ``(results,
    leftover_indices)`` where ``results`` is aligned with ``cells``
    (entries for leftover cells are ``None``) and ``leftover_indices``
    names the cells whose ``build`` declined — the caller dispatches
    those through the serial path.

    The grouped evaluation runs with telemetry off; every cell's runs
    are then observed in cell order, as serial cell calls would record
    them. Observing in group order would reorder the events and change
    the float sums of the traffic counters.
    """
    results: list[Any] = [None] * len(cells)
    leftovers: list[int] = []
    built: list[tuple[int, PlanBatch]] = []
    for i, cell in enumerate(cells):
        item = spec.build(*cell)
        if item is None:
            leftovers.append(i)
        else:
            built.append((i, item))

    engines: dict[tuple, Engine] = {}
    groups: dict[tuple, list[tuple[int, int, Plan]]] = {}
    cell_runs: list[list[RunResult | None]] = []
    for bi, (_, item) in enumerate(built):
        engine_key = tuple((r.name, r.capacity) for r in item.resources)
        if engine_key not in engines:
            engines[engine_key] = Engine(item.resources, record_events=False)
        cell_runs.append([None] * len(item.plans))
        for slot, plan in enumerate(item.plans):
            key = (engine_key, plan.structure())
            groups.setdefault(key, []).append((bi, slot, plan))

    with telemetry_session(Telemetry(enabled=False)):
        for (engine_key, _), entries in groups.items():
            outs = run_batch(engines[engine_key], [p for _, _, p in entries])
            for (bi, slot, _), out in zip(entries, outs):
                cell_runs[bi][slot] = out

    for bi, (i, item) in enumerate(built):
        for plan, run in zip(item.plans, cell_runs[bi]):
            observe(plan, run)
        results[i] = item.finish(cell_runs[bi])
    return results, leftovers

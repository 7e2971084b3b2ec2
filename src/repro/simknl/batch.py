"""Fast evaluation of plans: one lowered shape for a whole sweep.

The paper's sweeps (Table 1, Figures 6-8) evaluate thousands of cells
that differ only in sizes and rates over a structurally identical plan.
A plan holds its pipeline steady state as one repeated block
(:class:`~repro.simknl.engine.Block`); this module lowers N plans with
the same block structure and live-flow signatures (only
``bytes_total`` and repeat counts varying) to one shared
:class:`LoweredSweep` plus one row per plan — live-flow byte demands,
then one repeat count per block — and evaluates the rows on one of two
paths. :func:`run_batch` is the one place that chooses:

* **one plan without a repeated block**: :meth:`Engine.run`, the
  reference loop;
* **fewer than** :data:`TENSOR_MIN_PLANS` **plans** (every batch a
  shipped artifact makes): :func:`run_rows`, row by row in plain
  floats. Each template phase is evaluated once per distinct demand
  slice and its time and traffic replayed per repetition. No NumPy is
  imported;
* **larger batches** (the 4,000-cell benchmark sweep's big groups):
  :func:`run_lowered`, one ``(cells x columns)`` NumPy tensor evaluated
  with a handful of vectorized ops — one water-filling solve per
  template phase, broadcast per-cell phase times, cumsum time and
  traffic accumulation. NumPy is imported inside these functions, on
  first use.

Each plan's row is its :attr:`~repro.simknl.engine.Plan.row`. The sort
builders emit lazy plans: a :class:`~repro.simknl.engine.PlanTemplate`,
built once per process with its lowered shape, plus the cell's row.
:func:`evaluate_cells` groups them by template identity; no
``Phase``/``Flow`` object is built per cell.

Bit-identity of both paths with the per-phase reference loop of
:meth:`Engine.run` (the oracle) rests on three facts:

* a memoized water-filling solve is positionally bit-identical to a
  re-solve for equal structural signatures;
* ``max``/``min`` folds over floats are exact, and both the plain-float
  ``reduce`` chains and ``np.cumsum`` add strictly left to right, as
  the reference ``+=`` chains do — a block repeated ``k`` times
  contributes ``k`` additions, never one ``k * t``;
* in the tensor, zero-padding is bitwise neutral — ``x + 0.0 == x`` for
  the finite non-negative totals the engine accumulates — which is
  what lets rectangular arrays cover cells with fewer repetitions and
  phases whose flows finish early.

Anything the fast path cannot express — starved allocations, rounds
where some phase completes no flow — falls back to the reference loop,
per plan. Telemetry never does: every run, on either path, is recorded
afterwards from its :class:`RunResult` by
:func:`~repro.simknl.engine.observe`.

:func:`plan_group` turns a group builder, which lowers a list of sweep
cells to one :class:`PlanBatch` each (plans plus a ``finish``
post-processor), into the cell function itself; :func:`plan_cell` does
the same for a builder of one cell. Called directly, a cell is a group
of one whose plans run one by one through :func:`run_batch`;
``experiments.runner.sweep_map`` hands all of a sweep's pending cells
to one :func:`evaluate_cells` call instead, which runs each distinct
plan once. A group builder may share work between the cells of one
call (the sort-variant builder computes each megachunk size's scalars
and looks up each template once) but keeps nothing across calls. The
builder is each cell's only definition, and plan cells in
``sweep_map`` are how the experiment drivers reach the engine. The one
exception is ``faults``: ``experiments.extensions._fault_cell`` calls
``Engine.run`` on degraded resources directly.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.errors import PlanError
from repro.simknl.engine import _EPS, Engine, Plan, RunResult, observe
from repro.simknl.flows import Flow, Resource
from repro.telemetry.runtime import DISABLED, telemetry_session

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "PlanBatch",
    "LoweredSweep",
    "batched_dynamic",
    "evaluate_cells",
    "lower_plans",
    "lower_template",
    "plan_cell",
    "plan_group",
    "run_batch",
    "run_lowered",
    "run_rows",
]

#: Smallest batch :func:`run_batch` evaluates as one NumPy tensor;
#: smaller ones run on :func:`run_rows`. Measured per batch, plain
#: Python won every batch of up to 8 plans and the tensor every batch
#: of 20 or more; no sweep makes a batch in between.
TENSOR_MIN_PLANS = 16


def _resource_columns(
    flows: Sequence[Flow],
) -> list[tuple[str, list[int], list[float]]]:
    """Per-resource ``(name, flow columns, multipliers)`` triples, in
    the reference loop's first-touch order (columns ascending)."""
    seen: dict[str, list[int]] = {}
    for j, f in enumerate(flows):
        for name in f.resources:
            seen.setdefault(name, []).append(j)
    return [
        (name, cols, [flows[j].resources[name] for j in cols])
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
    import numpy as np

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
            with np.errstate(over="ignore", divide="ignore"):
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
    import numpy as np

    (rate,) = allocate([flow])
    if rate <= 0.0:
        return None  # zero aggregate rate: reference raises
    rem = bytes_matrix[:, 0].astype(np.float64)
    with np.errstate(over="ignore", divide="ignore"):
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
    they occupy in a row, and the per-resource columns."""

    static: bool
    flows: list[Flow]
    lo: int
    hi: int
    resource_cols: list[tuple[str, list[int], list[float]]]


@dataclass
class LoweredSweep:
    """A sweep's shared shape: block structure plus row layout.

    Pair with per cell one row of ``width`` entries — first ``slots``
    live-flow byte demands over the block templates in plan order,
    then one repeat count per block — and feed both to
    :func:`run_rows`, or stack the rows into a ``(cells, width)``
    tensor for :func:`run_lowered`. ``blocks`` holds each block's
    ``[lo, hi)`` range into ``phases``.
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
    """Stack N structurally identical plans into one NumPy tensor.

    The first plan gives the shared shape (:func:`_lowered`). Each plan
    contributes its :attr:`~repro.simknl.engine.Plan.row` — its block
    templates' live-flow byte demands in plan order, then its blocks'
    repeat counts — so plans that differ only in chunk count share one
    shape.
    The tensor is the sweep's entire variable state — 8 bytes per live
    flow slot and per block, per cell.
    """
    import numpy as np

    tensor = np.array([plan.row for plan in plans], dtype=np.float64)
    return _lowered(plans[0]), tensor


def _lowered(plan: Plan) -> LoweredSweep:
    """``plan``'s shared shape: a lazy plan's template holds it ready,
    any other plan is lowered here."""
    template = plan.template
    if template is None:
        return lower_template(plan)
    if template.lowered is None:
        template.lowered = lower_template(template.shape)
    return template.lowered


def _repeat_columns(
    x: np.ndarray, keep: np.ndarray
) -> np.ndarray:
    """``x``'s columns (one repetition) laid out once per column of the
    ``(cells, most)`` mask ``keep``, zeroed where ``keep`` is False (a
    row repeated fewer times than ``most``). The zeros are bitwise
    neutral in the running sums: ``t + 0.0 == t`` for the engine's
    finite non-negative totals."""
    import numpy as np

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
    callers with the original plans fall back to per-cell ``run``. The
    results are not observed; that is the caller's job.
    """
    import numpy as np

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
            # A starved rate overflows the step to inf, which the
            # reference loop returns too; it must not warn on the way.
            with np.errstate(over="ignore", divide="ignore"):
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
            )
        )
    return results


def _phase_steps(
    ph: _LoweredPhase,
    demands: Sequence[float],
    rates: list[float],
    allocate: Callable[[list[Flow]], list[float]],
) -> tuple[float, dict[str, list[float]]] | None:
    """One template phase on one row's ``demands``, in plain floats:
    its elapsed time and, per resource, the traffic additions in the
    reference loop's order. ``rates`` is the solve for all of the
    phase's live flows. The arithmetic is :meth:`Engine._run_phase`'s,
    operation for operation; ``None`` wherever that loop raises."""
    flows = ph.flows
    if not flows:
        return 0.0, {}
    if ph.static:
        if min(rates) <= 0:
            return None  # starved static flow
        return max(map(operator.truediv, demands, rates)), {
            name: [demands[j] * mult for j, mult in zip(cols, mults)]
            for name, cols, mults in ph.resource_cols
        }
    steps: dict[str, list[float]] = {}
    live = flows
    remaining = list(demands)
    totals = remaining
    elapsed = 0.0
    for _ in range(len(flows) + 1):
        if not live:
            break
        if live is not flows:
            rates = allocate(live)
        dt = math.inf
        for rem, r in zip(remaining, rates):
            if r > 0 and rem / r < dt:
                dt = rem / r
        if math.isinf(dt):
            return None  # zero aggregate rate (starvation)
        elapsed += dt
        next_live = []
        next_remaining = []
        next_totals = []
        for f, rem, total, r in zip(live, remaining, totals, rates):
            moved = r * dt
            rem = max(0.0, rem - moved)
            for name, mult in f.resources.items():
                steps.setdefault(name, []).append(moved * mult)
            if rem <= _EPS * max(1.0, total):
                continue  # drained
            next_live.append(f)
            next_remaining.append(rem)
            next_totals.append(total)
        if len(next_live) == len(live):
            return None  # no flow completed
        live, remaining, totals = next_live, next_remaining, next_totals
    if live:
        return None  # exceeded iteration bound
    return elapsed, steps


def _chain(terms: list[float]) -> float:
    """``0.0 + terms[0] + terms[1] + ...``, strictly left to right: the
    reference loop's ``+=`` chain. (``sum`` compensates on 3.12+.)"""
    return functools.reduce(operator.add, terms, 0.0)


_positive = (0.0).__lt__


def run_rows(
    engine: Engine, lowered: LoweredSweep, rows: Sequence[Sequence[float]]
) -> list[RunResult] | None:
    """Evaluate a lowered sweep row by row in plain floats: one
    :class:`RunResult` per row, as :func:`run_lowered` returns for the
    same rows as a tensor.

    Each row's template phases are evaluated once, by
    :func:`_phase_steps`, and memoized within the call on ``(phase,
    demands)``: sweep cells share most of their steps. A block repeated
    ``k`` times then contributes its phase times and traffic ``k``
    times to the left-to-right chains — never ``k * t``. Returns
    ``None`` exactly where :func:`run_lowered` does: a non-positive row
    entry, a starved allocation, a round that completes no flow, or the
    iteration bound. The results are not observed.
    """
    slots = lowered.slots
    phases = lowered.phases
    allocate = engine._allocate
    solves = [allocate(ph.flows) if ph.flows else [] for ph in phases]
    memo: dict[tuple, tuple[float, dict[str, list[float]]]] = {}
    results = []
    for row in rows:
        if not all(map(_positive, row)):
            return None  # a zero-byte slot changes liveness
        phase_times: list[float] = []
        chains: dict[str, list[float]] = {name: [] for name in engine.resources}
        for (lo, hi), repeat in zip(lowered.blocks, row[slots:]):
            times = []
            traffic: dict[str, list[float]] = {}
            for pi in range(lo, hi):
                ph = phases[pi]
                key = (pi, tuple(row[ph.lo:ph.hi]))
                out = memo.get(key)
                if out is None:
                    out = _phase_steps(ph, key[1], solves[pi], allocate)
                    if out is None:
                        return None
                    memo[key] = out
                times.append(out[0])
                if hi - lo == 1:
                    traffic = out[1]
                else:
                    for name, terms in out[1].items():
                        traffic.setdefault(name, []).extend(terms)
            k = int(repeat)
            phase_times.extend(times * k)
            for name, terms in traffic.items():
                chains[name].extend(terms * k)
        results.append(
            RunResult(
                elapsed=_chain(phase_times),
                traffic={name: _chain(terms) for name, terms in chains.items()},
                phase_times=phase_times,
            )
        )
    return results


def run_batch(engine: Engine, plans: Sequence[Plan]) -> list[RunResult]:
    """Run N structurally identical plans on the fast path where it
    applies.

    Bit-identical to ``[engine.run(p) for p in plans]``, telemetry
    included: fast-path results are recorded by
    :func:`~repro.simknl.engine.observe` in plan order, just as the
    sequential runs record themselves. The fast path takes more than
    one plan, or one plan with a block repeated at least twice: a
    batch of at least :data:`TENSOR_MIN_PLANS` plans as one NumPy
    tensor (:func:`run_lowered`), a smaller one row by row in plain
    floats (:func:`run_rows`). A single plan without a repeated block
    runs on :meth:`Engine.run`, as does every plan when the fast path
    declines (starved allocation, no-completion round) — in which case
    the reference path also raises the precise per-phase
    :class:`~repro.errors.SimulationError` the serial caller would
    have seen.

    Raises :class:`~repro.errors.PlanError` if the plans do not share
    one block structure (use :meth:`Plan.structure` to pre-group).
    """
    plans = list(plans)
    if not plans:
        return []
    if len(plans) == 1 and all(r == 1 for r in plans[0].repeats):
        return [engine.run(plans[0])]
    for p in plans:
        p.validate()
    template = plans[0].template
    if template is None or any(p.template is not template for p in plans):
        structure = plans[0].structure()
        for p in plans[1:]:
            if p.structure() != structure:
                raise PlanError(
                    f"run_batch: plan {p.name!r} does not share the "
                    "batch's block structure"
                )
    if len(plans) >= TENSOR_MIN_PLANS:
        results = run_lowered(engine, *lower_plans(plans))
    else:
        results = run_rows(engine, _lowered(plans[0]), [p.row for p in plans])
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


def plan_group(
    build: Callable[[Sequence[tuple]], list[PlanBatch]],
) -> Callable[..., Any]:
    """Make a group builder the one definition of a cell.

    ``build(cells)`` returns one :class:`PlanBatch` per argument tuple,
    in order. Called directly, the returned cell is a group of one: it
    runs its plans one by one through :func:`run_batch` (exactly what
    :meth:`~repro.simknl.node.KNLNode.run` does) and returns ``finish``
    of the runs. ``sweep_map`` instead reads ``cell.plan_batch`` (the
    builder) and evaluates all pending cells with :func:`evaluate_cells`.
    The cell keeps the builder's name and ``__qualname__``, its memo and
    store key.
    """

    @functools.wraps(build)
    def cell(*args: Any) -> Any:
        (batch,) = build([args])
        engine = Engine(batch.resources)
        return batch.finish([run_batch(engine, [p])[0] for p in batch.plans])

    cell.plan_batch = build
    return cell


def plan_cell(build: Callable[..., PlanBatch]) -> Callable[..., Any]:
    """:func:`plan_group` for a builder of one cell, ``build(*args)``."""
    group = plan_group(lambda cells: [build(*cell) for cell in cells])
    return functools.update_wrapper(group, build)


def evaluate_cells(
    build: Callable[[Sequence[tuple]], list[PlanBatch]],
    cells: Sequence[tuple],
) -> list[Any]:
    """Evaluate sweep cells via cross-cell batching.

    Builds every cell's :class:`PlanBatch` with one ``build(cells)``
    call, groups all resulting plans by ``(resource tuple, plan
    template)``, evaluates each group's distinct rows with
    :func:`run_batch` on a shared per-resource-tuple engine, and feeds
    each cell's results to its ``finish``. Returns the results in cell
    order, bit-identical to calling the :func:`plan_group` cell per
    cell: a row's run does not depend on the other rows, so plans with
    equal rows share one :class:`RunResult`. Templates group by
    identity, so a lazy plan's nested structure is never hashed; a plan
    without one groups by its :meth:`~repro.simknl.engine.Plan.structure`.

    The grouped evaluation runs under the shared disabled telemetry;
    every cell's runs are then observed in cell order, as serial cell
    calls would record them. Observing in group order would reorder the
    events and change the float sums of the traffic counters.
    """
    built = build(cells)
    engines: dict[tuple, Engine] = {}
    # Cells on one booted node share its resource tuple, so each
    # distinct tuple object is keyed once, not once per cell. ``built``
    # keeps every tuple alive, so no id is reused during the loop.
    by_tuple: dict[int, Engine] = {}
    # (engine, template) -> row -> (plan, the (cell, slot)s that run it)
    groups: dict[tuple, dict[tuple, tuple[Plan, list]]] = {}
    cell_runs: list[list[RunResult | None]] = []
    for bi, item in enumerate(built):
        engine = by_tuple.get(id(item.resources))
        if engine is None:
            engine_key = tuple((r.name, r.capacity) for r in item.resources)
            engine = engines.get(engine_key)
            if engine is None:
                engine = engines[engine_key] = Engine(item.resources)
            by_tuple[id(item.resources)] = engine
        cell_runs.append([None] * len(item.plans))
        for slot, plan in enumerate(item.plans):
            key = (engine, plan.template or plan.structure())
            rows = groups.setdefault(key, {})
            row = tuple(plan.row)
            if row not in rows:
                rows[row] = (plan, [])
            rows[row][1].append((bi, slot))

    with telemetry_session(DISABLED):
        for (engine, _), rows in groups.items():
            outs = run_batch(engine, [plan for plan, _ in rows.values()])
            for (_, slots), out in zip(rows.values(), outs):
                for bi, slot in slots:
                    cell_runs[bi][slot] = out

    results = []
    for item, runs in zip(built, cell_runs):
        for plan, run in zip(item.plans, runs):
            observe(plan, run)
        results.append(item.finish(runs))
    return results

"""Fast evaluation of plans: one lowered shape for a whole sweep.

The paper's sweeps (Table 1, Figures 6-8) evaluate thousands of cells
that differ only in sizes and rates over a structurally identical plan.
A plan holds its pipeline steady state as one repeated block
(:class:`~repro.simknl.engine.Block`); this module lowers N plans with
the same block structure and live-flow signatures (only
``bytes_total`` and repeat counts varying) to one shared
:class:`LoweredSweep` plus one row per plan — live-flow byte demands,
then one repeat count per block. :func:`run_batch` is the one place
that chooses between the two paths:

* **one plan without a repeated block**: :meth:`Engine.run`, the
  reference loop;
* **everything else**: :func:`run_rows`, row by row in plain floats.
  Each template phase is evaluated once per distinct demand slice and
  its time and traffic replayed per repetition.

Each plan's row is its :attr:`~repro.simknl.engine.Plan.row`. The sort
builders emit lazy plans: a :class:`~repro.simknl.engine.PlanTemplate`,
built once per process with its lowered shape, plus the cell's row.
:func:`evaluate_cells` groups them by template identity; no
``Phase``/``Flow`` object is built per cell.

Bit-identity of :func:`run_rows` with the per-phase reference loop of
:meth:`Engine.run` (the oracle) rests on two facts:

* a memoized water-filling solve is positionally bit-identical to a
  re-solve for equal structural signatures;
* ``max``/``min`` folds over floats are exact, and the ``reduce``
  chains add strictly left to right, as the reference ``+=`` chains
  do — a block repeated ``k`` times contributes ``k`` additions, never
  one ``k * t``.

Anything the fast path cannot express — starved allocations, rounds
where some phase completes no flow — sends the whole batch to the
reference loop, plan by plan. Telemetry never does: every run, on
either path, is recorded afterwards from its :class:`RunResult` by
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
and looks up each template once) but keeps nothing across calls. It
may also return one :class:`PlanBatch` object for several cells that
denote one plan (the sort-variant builder does, for cells whose plan
inputs are equal in their exact form): :func:`evaluate_cells` groups
and finishes that object once and observes its runs once per cell. The
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
from typing import Any, Callable, Sequence

from repro.errors import PlanError
from repro.simknl.engine import _EPS, Engine, Plan, RunResult, observe
from repro.simknl.flows import Flow, Resource
from repro.telemetry.runtime import DISABLED, telemetry_session

__all__ = [
    "PlanBatch",
    "LoweredSweep",
    "evaluate_cells",
    "lower_template",
    "plan_cell",
    "plan_group",
    "run_batch",
    "run_rows",
]


# ---- cross-cell lowering ------------------------------------------------


@dataclass
class _LoweredPhase:
    """One template phase: its live flows and the ``[lo, hi)`` column
    slice they occupy in a row."""

    static: bool
    flows: list[Flow]
    lo: int
    hi: int


@dataclass
class LoweredSweep:
    """A sweep's shared shape: block structure plus row layout.

    Pair with per cell one row — first ``slots`` live-flow byte demands
    over the block templates in plan order, then one repeat count per
    block — and feed both to :func:`run_rows`. ``blocks`` holds each
    block's ``[lo, hi)`` range into ``phases``.
    """

    phases: list[_LoweredPhase]
    blocks: list[tuple[int, int]]
    slots: int


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
            phases.append(_LoweredPhase(ph.static_rates, live, lo, hi))
            lo = hi
        blocks.append((first, len(phases)))
    return LoweredSweep(phases=phases, blocks=blocks, slots=lo)


def _lowered(plan: Plan) -> LoweredSweep:
    """``plan``'s shared shape: a lazy plan's template holds it ready,
    any other plan is lowered here."""
    template = plan.template
    if template is None:
        return lower_template(plan)
    if template.lowered is None:
        template.lowered = lower_template(template.shape)
    return template.lowered


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
    steps: dict[str, list[float]] = {}
    if ph.static:
        if min(rates) <= 0:
            return None  # starved static flow
        for f, nbytes in zip(flows, demands):
            for name, mult in f.resources.items():
                steps.setdefault(name, []).append(nbytes * mult)
        return max(map(operator.truediv, demands, rates)), steps
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
    :class:`RunResult` per row.

    Each row's template phases are evaluated once, by
    :func:`_phase_steps`, and memoized within the call on ``(phase,
    demands)``: sweep cells share most of their steps. A block repeated
    ``k`` times then contributes its phase times and traffic ``k``
    times to the left-to-right chains — never ``k * t``. Returns
    ``None`` where the reference loop would take another path or raise:
    a non-positive row entry (it would change liveness or repetition),
    a starved allocation, a round that completes no flow, or the
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
    sequential runs record themselves. The fast path,
    :func:`run_rows`, takes more than one plan, or one plan with a
    block repeated at least twice. A single plan without a repeated
    block runs on :meth:`Engine.run`, as does every plan when the fast
    path declines (starved allocation, no-completion round) — in which
    case the reference path also raises the precise per-phase
    :class:`~repro.errors.SimulationError` the serial caller would have
    seen.

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
    results = run_rows(engine, _lowered(plans[0]), [p.row for p in plans])
    if results is None:
        return [engine.run(p) for p in plans]
    for plan, result in zip(plans, results):
        observe(plan, result)
    return results


# The benchmark's tracer (``bench/tracer.py``) times the fast path's two
# stages under these names: a batch's shared shape and its row pass. It
# rebinds every module name bound to a traced function, so the calls
# ``run_batch`` makes are timed too.
lower_plans = _lowered
run_lowered = run_rows


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

    A batch object the builder returns for several cells (cells that
    denote one plan) is grouped and finished once; each of those cells
    gets its ``finish`` value. The grouped evaluation runs under the
    shared disabled telemetry; every cell's runs, a shared batch's
    included, are then observed in cell order, as serial cell calls
    would record them. Observing in group order would reorder the
    events and change the float sums of the traffic counters.
    """
    built = build(cells)
    engines: dict[tuple, Engine] = {}
    # Cells on one booted node share its resource tuple, so each
    # distinct tuple object is keyed once, not once per cell. A builder
    # may return one batch object for several cells; it is grouped and
    # finished once. ``built`` keeps every tuple and batch alive, so no
    # id is reused during the loop.
    by_tuple: dict[int, Engine] = {}
    # (engine, template) -> row -> (plan, the (runs, slot)s that run it)
    groups: dict[tuple, dict[tuple, tuple[Plan, list]]] = {}
    batch_runs: dict[int, list[RunResult | None]] = {}
    for item in built:
        if id(item) in batch_runs:
            continue
        engine = by_tuple.get(id(item.resources))
        if engine is None:
            engine_key = tuple((r.name, r.capacity) for r in item.resources)
            engine = engines.get(engine_key)
            if engine is None:
                engine = engines[engine_key] = Engine(item.resources)
            by_tuple[id(item.resources)] = engine
        runs = batch_runs[id(item)] = [None] * len(item.plans)
        for slot, plan in enumerate(item.plans):
            key = (engine, plan.template or plan.structure())
            rows = groups.setdefault(key, {})
            row = tuple(plan.row)
            if row not in rows:
                rows[row] = (plan, [])
            rows[row][1].append((runs, slot))

    with telemetry_session(DISABLED):
        for (engine, _), rows in groups.items():
            outs = run_batch(engine, [plan for plan, _ in rows.values()])
            for (_, slots), out in zip(rows.values(), outs):
                for runs, slot in slots:
                    runs[slot] = out

    finished: dict[int, Any] = {}
    results = []
    for item in built:
        runs = batch_runs[id(item)]
        for plan, run in zip(item.plans, runs):
            observe(plan, run)
        if id(item) not in finished:
            finished[id(item)] = item.finish(runs)
        results.append(finished[id(item)])
    return results

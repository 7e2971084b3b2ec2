"""Discrete-event execution of flow plans.

A :class:`Plan` is an ordered list of :class:`Phase` objects separated
by barriers: a phase begins only when its predecessor has fully
completed. Within a phase all flows run concurrently and share
bandwidth via the max-min fair allocator; the phase ends when every
flow has moved its bytes. This directly realizes the paper's
``T_step = max(T_copyin, T_comp, T_copyout)`` pipelined-step semantics
(Fig. 2) while also capturing the second-order effect the closed-form
model ignores: when one pool finishes early, the remaining pools speed
up because bandwidth is re-shared.

A plan stores its phases as run-length :class:`Block` entries, so the
pipeline steady state is held once with its repeat count; a plan with
a repeated block is evaluated as a one-row tensor
(:func:`repro.simknl.batch.run_lowered`), and the per-phase loop here
is the reference it must match bit for bit.

The engine accumulates per-resource traffic counters so experiments can
report DDR/MCDRAM traffic (used for the Bender et al. corroboration of
the ~2.5x DDR-traffic reduction).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.errors import PlanError, SimulationError
from repro.simknl.flows import Flow, Resource, allocate_rates
from repro.telemetry import names as _tn
from repro.telemetry import runtime as _tm

_EPS = 1e-12

#: Water-filling solutions keyed by (resource, live-flow) signature,
#: shared by every engine in the process. A solve is a pure function of
#: the capacities and the live flows' signatures, so engines over equal
#: resources reuse each other's solves: sweeps build fresh engines per
#: batch and per node, yet re-run the same structures thousands of
#: times. Only rates are cached, never plans or results.
_RATE_MEMO: dict[tuple, list[float]] = {}

#: Bound on memoized solutions; reached only by adversarial plans
#: (every phase structurally unique), at which point the memo is
#: dropped wholesale rather than LRU-tracked.
_RATE_MEMO_MAX = 4096


@dataclass
class Phase:
    """A barrier-delimited set of concurrent flows.

    Parameters
    ----------
    name:
        Display name, e.g. ``"step 3"``.
    flows:
        Flows that run concurrently during this phase.
    static_rates:
        When True, bandwidth shares are allocated once at phase start
        and held until the barrier: the phase lasts
        ``max(bytes / rate)`` over its flows. This models OpenMP-style
        pools whose threads keep their cores (and memory pipelines)
        for the whole step, spinning at the barrier — the paper's
        ``T_step = max(T_copyin, T_comp, T_copyout)``. When False
        (default), a flow that drains early releases its bandwidth and
        the remaining flows speed up (max-min resharing).
    """

    name: str
    flows: list[Flow] = field(default_factory=list)
    static_rates: bool = False

    def validate(self) -> None:
        """Raise :class:`PlanError` if the phase is malformed."""
        if not self.flows:
            raise PlanError(f"phase {self.name!r} has no flows")
        for f in self.flows:
            if f.bytes_total > 0 and f.rate_cap <= 0:
                raise PlanError(
                    f"phase {self.name!r}: flow {f.name!r} has bytes to "
                    "move but zero rate capacity"
                )

    @property
    def total_bytes(self) -> float:
        """Sum of logical bytes over all flows in the phase."""
        return sum(f.bytes_total for f in self.flows)


@dataclass
class Block:
    """One plan entry: ``phases`` run back to back ``repeat`` times.

    This is the pipeline steady state of Fig. 2 — the identical
    copy-in/compute/copy-out steps Eqs. 1–5 model — held once with its
    repeat count. The engine evaluates only ``phases``, so every
    repetition must match it in structure and byte demands.
    ``make(r)`` rebuilds repetition ``r``'s phases under their own
    display names (``step{s}``, ``chunk{i}/in``, ...) for the expanded
    :attr:`Plan.phases` view; without it the same phase objects repeat.
    """

    phases: list[Phase]
    repeat: int = 1
    make: Callable[[int], list[Phase]] | None = None

    def expand(self) -> list[Phase]:
        """Every repetition's phases, in execution order."""
        if self.make is None:
            return self.phases * self.repeat
        out = list(self.phases)
        for r in range(1, self.repeat):
            out.extend(self.make(r))
        return out

    def structure(self) -> tuple:
        """Per-phase ``(static_rates, live-flow signatures)``."""
        return tuple(
            (
                phase.static_rates,
                tuple(f.signature for f in phase.flows if f.bytes_total > 0),
            )
            for phase in self.phases
        )


class Plan:
    """An ordered, barrier-separated sequence of phases, held as
    run-length :class:`Block` entries.

    :meth:`add` appends one phase; :meth:`add_block` appends a builder's
    steady state as one repeated block. :attr:`phases` is the expanded
    flat view.
    """

    def __init__(self, name: str, phases: Iterable[Phase] = ()) -> None:
        self.name = name
        self.blocks: list[Block] = []
        self._phases: list[Phase] | None = None
        self._structure: tuple | None = None
        for phase in phases:
            self.add(phase)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Plan({self.name!r}, blocks={len(self.blocks)}, "
            f"phases={self.num_phases})"
        )

    def add(self, phase: Phase) -> "Plan":
        """Append a phase and return self (chainable).

        The same phase object added again right after is one more
        repetition of its block, so ``Plan(name, [phase] * k)`` holds
        one entry.
        """
        last = self.blocks[-1] if self.blocks else None
        if (
            last is not None
            and last.make is None
            and len(last.phases) == 1
            and last.phases[0] is phase
        ):
            last.repeat += 1
            self._phases = None
            return self
        return self._append(Block([phase]))

    def add_block(
        self, make: Callable[[int], list[Phase]], start: int, stop: int
    ) -> "Plan":
        """Append ``make(start)``, ..., ``make(stop - 1)`` as one block.

        ``make(i)`` returns step ``i``'s phases; the steps must be
        identical but for names. Only ``make(start)`` is built here —
        the others only when the flat :attr:`phases` view is expanded.
        An empty range appends nothing.
        """
        if stop > start:
            self._append(
                Block(make(start), stop - start, lambda r: make(start + r))
            )
        return self

    def _append(self, block: Block) -> "Plan":
        self.blocks.append(block)
        self._phases = None
        self._structure = None
        return self

    @property
    def phases(self) -> list[Phase]:
        """The flat phase list, expanded lazily and cached."""
        if self._phases is None:
            self._phases = [p for b in self.blocks for p in b.expand()]
        return self._phases

    @property
    def num_phases(self) -> int:
        """Length of :attr:`phases`, without expanding it."""
        return sum(len(b.phases) * b.repeat for b in self.blocks)

    def validate(self) -> None:
        """Validate every block's phases."""
        for b in self.blocks:
            for p in b.phases:
                p.validate()

    @property
    def total_bytes(self) -> float:
        """Sum of logical bytes over all phases."""
        return sum(p.total_bytes for p in self.phases)

    def structure(self) -> tuple:
        """Per-block :meth:`Block.structure`, repeat counts left out.

        Two plans with equal structures differ only in byte demands and
        repeat counts, which is exactly the precondition for cross-cell
        lowering (:func:`repro.simknl.batch.run_batch`). Cached until
        the next append; liveness (``bytes_total > 0``) is snapshotted
        at the first call.
        """
        if self._structure is None:
            self._structure = tuple(b.structure() for b in self.blocks)
        return self._structure


@dataclass
class RunResult:
    """Outcome of executing a plan.

    Attributes
    ----------
    elapsed:
        Simulated wall-clock seconds.
    traffic:
        Physical bytes moved per resource name.
    phase_times:
        Per-phase elapsed seconds, in plan order.
    events:
        ``(time, description)`` trace entries (flow completions).
    """

    elapsed: float
    traffic: dict[str, float]
    phase_times: list[float]
    events: list[tuple[float, str]] = field(default_factory=list)

    def traffic_gb(self, resource: str) -> float:
        """Traffic on ``resource`` in decimal GB."""
        return self.traffic.get(resource, 0.0) / 1e9


class Engine:
    """Executes plans against a fixed set of resources.

    Parameters
    ----------
    resources:
        The shared bandwidth resources (devices, NoC, ...).
    record_events:
        When True, flow-completion events are recorded in the result
        trace. Disable for large sweeps to save memory.
    """

    def __init__(
        self,
        resources: Iterable[Resource],
        record_events: bool = True,
        memoize_rates: bool = True,
        batch_phases: bool = True,
    ) -> None:
        self.resources: dict[str, Resource] = {}
        for r in resources:
            if r.name in self.resources:
                raise PlanError(f"duplicate resource {r.name!r}")
            self.resources[r.name] = r
        self.record_events = record_events
        #: Plans with a repeated block may be evaluated as a one-row
        #: tensor (:func:`repro.simknl.batch.run_lowered`). False keeps
        #: every phase on the per-phase reference loop — the oracle
        #: property holds the two bit-identical.
        self.batch_phases = batch_phases
        #: Solves are looked up in the process-wide ``_RATE_MEMO``.
        #: ``memoize_rates=False`` keeps the direct reference path
        #: (the property tests hold the two bit-identical).
        self.memoize_rates = memoize_rates
        self._res_sig = tuple(
            (name, self.resources[name].capacity)
            for name in sorted(self.resources)
        )

    # ---- rate allocation -------------------------------------------------

    def _allocate(self, live: list[Flow]) -> list[float]:
        """Max-min rates for ``live``, positionally, memoized on structure.

        The solution depends only on the current resource capacities
        and each live flow's ``(threads, per_thread_rate, resources)``
        signature — not on identity, names, or bytes remaining — so a
        cached solution is positionally bit-identical to a re-solve.
        """
        if not self.memoize_rates:
            rates = allocate_rates(live, self.resources)
            return [rates[id(f)] for f in live]
        memo = _RATE_MEMO
        key = (self._res_sig, tuple(f.signature for f in live))
        cached = memo.get(key)
        if cached is None:
            rates = allocate_rates(live, self.resources)
            if len(memo) >= _RATE_MEMO_MAX:
                memo.clear()
            memo[key] = cached = [rates[id(f)] for f in live]
        return cached

    def _tensor_eligible(self) -> bool:
        """Whether plans may skip the per-phase reference loop: the
        tensor path cannot record flow-completion events."""
        return self.batch_phases and not self.record_events

    def run(self, plan: Plan) -> RunResult:
        """Execute ``plan`` to completion and return timing/traffic.

        A plan with a block repeated at least twice is evaluated as a
        one-row :func:`~repro.simknl.batch.run_lowered` when the engine
        is eligible; everything else, and any plan the tensor path
        declines, runs on the per-phase reference loop. Either way the
        result is then recorded by :func:`observe`, so an active
        telemetry session sees the same metrics and events on both
        paths and never changes which one runs.
        """
        plan.validate()
        if self._tensor_eligible() and any(b.repeat > 1 for b in plan.blocks):
            from repro.simknl import batch

            results = batch.run_lowered(self, *batch.lower_plans([plan]))
            if results is not None:
                observe(plan, results[0])
                return results[0]
        clock = 0.0
        traffic: dict[str, float] = {name: 0.0 for name in self.resources}
        phase_times: list[float] = []
        events: list[tuple[float, str]] = []
        for phase in plan.phases:
            t = self._run_phase(phase, clock, traffic, events)
            phase_times.append(t)
            clock += t
        result = RunResult(
            elapsed=clock,
            traffic=traffic,
            phase_times=phase_times,
            events=events,
        )
        observe(plan, result)
        return result

    def _run_phase(
        self,
        phase: Phase,
        start: float,
        traffic: dict[str, float],
        events: list[tuple[float, str]],
    ) -> float:
        """Run one phase; returns its elapsed time."""

        def flow_done(at: float, f: Flow) -> None:
            if self.record_events:
                events.append((at, f"{phase.name}:{f.name} done"))

        # Work on copies of byte counters so plans can be re-run.
        live = [f for f in phase.flows if f.bytes_total > 0]
        remaining = [f.bytes_total for f in live]
        if phase.static_rates:
            if not live:
                return 0.0
            rates = self._allocate(live)
            dt = 0.0
            for f, rem, r in zip(live, remaining, rates):
                if r <= 0:
                    raise SimulationError(
                        f"phase {phase.name!r}: flow {f.name!r} starved "
                        "under static rates"
                    )
                dt = max(dt, rem / r)
                for name, mult in f.resources.items():
                    traffic[name] += rem * mult
                flow_done(start + rem / r, f)
            return dt
        elapsed = 0.0
        # Each iteration completes at least one flow (every flow whose
        # remaining bytes drain in exactly ``dt`` — same-rate
        # completions batch into the one step), so this loop runs at
        # most len(live) times.
        max_iter = len(live) + 1
        for _ in range(max_iter):
            if not live:
                break
            rates = self._allocate(live)
            # Time until the earliest completion.
            dt = math.inf
            for rem, r in zip(remaining, rates):
                if r > 0 and rem / r < dt:
                    dt = rem / r
            if math.isinf(dt):
                raise SimulationError(
                    f"phase {phase.name!r}: live flows but zero aggregate "
                    "rate (resource starvation)"
                )
            elapsed += dt
            next_live = []
            next_remaining = []
            for f, rem, r in zip(live, remaining, rates):
                moved = r * dt
                rem = max(0.0, rem - moved)
                for name, mult in f.resources.items():
                    traffic[name] += moved * mult
                if rem <= _EPS * max(1.0, f.bytes_total):
                    flow_done(start + elapsed, f)
                else:
                    next_live.append(f)
                    next_remaining.append(rem)
            if len(next_live) == len(live):
                raise SimulationError(
                    f"phase {phase.name!r}: no flow completed in an "
                    "engine iteration"
                )
            live = next_live
            remaining = next_remaining
        if live:
            raise SimulationError(
                f"phase {phase.name!r}: exceeded iteration bound"
            )
        return elapsed

    def run_batch(self, plans: list[Plan]) -> list[RunResult]:
        """Run N structurally identical plans as one tensor evaluation.

        Delegates to :func:`repro.simknl.batch.run_batch`; falls back to
        sequential :meth:`run` calls when the engine or the plans are
        ineligible (see that function's docs). Results are bit-identical
        to ``[self.run(p) for p in plans]`` either way.
        """
        from repro.simknl.batch import run_batch

        return run_batch(self, plans)


def observe(plan: Plan, result: RunResult) -> None:
    """Record one finished run of ``plan`` in the active telemetry.

    A pure function of the plan and its result, so the tensor path and
    the reference loop are observed identically. Outside a session it
    returns at once. Phase timestamps replay the reference loop's own
    ``clock += t`` chain over ``result.phase_times``, offset by the
    event log's watermark so successive runs share one monotonic sim
    timeline. Every live flow drains exactly once per phase (or the
    run raises), so flow completions are counted from the plan.
    """
    tel = _tm.current()
    if not tel.enabled:
        return
    emit = tel.events.emit
    m = tel.metrics
    t0 = tel.events.now
    emit(_tn.EVENT_RUN_START, time=t0, plan=plan.name)
    h_phase = m.histogram(_tn.ENGINE_PHASE_SECONDS)
    clock = 0.0
    for index, (phase, t) in enumerate(zip(plan.phases, result.phase_times)):
        emit(
            _tn.EVENT_PHASE_START,
            time=t0 + clock,
            plan=plan.name,
            phase=phase.name,
            index=index,
        )
        clock += t
        h_phase.observe(t)
        emit(
            _tn.EVENT_PHASE_END,
            time=t0 + clock,
            plan=plan.name,
            phase=phase.name,
            index=index,
            seconds=t,
        )
    emit(_tn.EVENT_RUN_END, time=t0 + clock, plan=plan.name, seconds=clock)
    m.counter(_tn.ENGINE_RUNS_TOTAL).inc()
    m.counter(_tn.ENGINE_PHASES_TOTAL).inc(len(result.phase_times))
    c_traffic = m.counter(_tn.ENGINE_TRAFFIC_BYTES_TOTAL)
    for name, moved in result.traffic.items():
        if moved > 0:
            c_traffic.inc(moved, resource=name)
    m.counter(_tn.ENGINE_FLOW_COMPLETIONS_TOTAL).inc(
        sum(
            b.repeat * sum(f.bytes_total > 0 for p in b.phases for f in p.flows)
            for b in plan.blocks
        )
    )


def run_flows(
    flows: list[Flow],
    resources: Iterable[Resource],
    name: str = "phase",
) -> RunResult:
    """Convenience: run a single phase of flows to completion."""
    engine = Engine(resources)
    return engine.run(Plan(name=name, phases=[Phase(name=name, flows=flows)]))

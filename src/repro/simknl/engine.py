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
pipeline steady state is held once with its repeat count.
:meth:`Engine.run` is the per-phase reference loop and nothing else;
the fast path (:func:`repro.simknl.batch.run_batch`) must match it
bit for bit.

A builder whose cells differ only in sizes (the sort builders) emits a
*lazy* plan: a shared :class:`PlanTemplate` plus the cell's bytes row.
:func:`plan_template` builds each template once per process from its
key; the plan's :class:`Phase`/:class:`Flow` objects are built only
when :attr:`Plan.blocks` or :attr:`Plan.phases` is read — by the
reference loop or by :func:`observe` under a telemetry session. The
fast path reads the template's lowered shape and the row directly.

The engine accumulates per-resource traffic counters so experiments can
report DDR/MCDRAM traffic (used for the Bender et al. corroboration of
the ~2.5x DDR-traffic reduction).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.errors import PlanError, SimulationError
from repro.simknl.flows import Flow, Resource, allocate_rates
from repro.telemetry import runtime as _tm

_EPS = 1e-12

#: Water-filling solutions keyed by (resource, live-flow) signature,
#: shared by every engine in the process. A solve is a pure function of
#: the capacities and the live flows' signatures, so engines over equal
#: resources reuse each other's solves: sweeps build fresh engines per
#: batch and per node, yet re-run the same structures thousands of
#: times. Only rates are cached, never plans or results.
_RATE_MEMO: dict[tuple, list[float]] = {}


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

    A plan made by :meth:`from_template` is lazy: it holds a shared
    :class:`PlanTemplate` and its own :attr:`row`, and builds its
    blocks only when they are read. Appending to a lazy plan builds
    them and detaches the template.
    """

    def __init__(self, name: str, phases: Iterable[Phase] = ()) -> None:
        self.name = name
        #: The shared structure of a lazy plan; None for a plan built
        #: phase by phase.
        self.template: PlanTemplate | None = None
        self._row: Sequence[float] = ()
        self._blocks: list[Block] | None = []
        self._phases: list[Phase] | None = None
        self._structure: tuple | None = None
        for phase in phases:
            self.add(phase)

    @classmethod
    def from_template(
        cls, template: PlanTemplate, row: Sequence[float], name: str
    ) -> "Plan":
        """A lazy plan: ``template``'s structure with ``row``'s byte
        demands and repeat counts (laid out as :attr:`row`)."""
        plan = cls(name)
        plan.template = template
        plan._row = row
        plan._blocks = None
        return plan

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Plan({self.name!r}, blocks={len(self.repeats)}, "
            f"phases={self.num_phases})"
        )

    @property
    def blocks(self) -> list[Block]:
        """The run-length entries; a lazy plan builds them on first read."""
        if self._blocks is None:
            self._blocks = self.template.blocks(self._row)
        return self._blocks

    def _detach(self) -> None:
        """Turn a lazy plan into an ordinary one before it changes."""
        if self.template is not None:
            self._blocks = self.blocks
            self.template = None
            self._row = ()
            self._structure = None

    def add(self, phase: Phase) -> "Plan":
        """Append a phase and return self (chainable).

        The same phase object added again right after is one more
        repetition of its block, so ``Plan(name, [phase] * k)`` holds
        one entry.
        """
        self._detach()
        last = self._blocks[-1] if self._blocks else None
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
        self._detach()
        self._blocks.append(block)
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
    def row(self) -> Sequence[float]:
        """The plan's bytes row: every block's live-flow byte demands in
        block, phase and flow order, then every block's repeat count.

        Plans with equal :meth:`structure` differ only here; it is what
        :mod:`repro.simknl.batch`'s fast path evaluates. A lazy plan
        holds it; any other plan walks its blocks.
        """
        if self.template is not None:
            return self._row
        row = [
            f.bytes_total
            for block in self.blocks
            for ph in block.phases
            for f in ph.flows
            if f.bytes_total > 0
        ]
        row.extend(block.repeat for block in self.blocks)
        return row

    @property
    def repeats(self) -> Sequence[int]:
        """Each block's repeat count, without building a lazy plan's
        blocks."""
        if self.template is not None:
            return self._row[self.template.slots:]
        return [b.repeat for b in self.blocks]

    @property
    def num_phases(self) -> int:
        """Length of :attr:`phases`, without expanding it."""
        if self.template is not None:
            return sum(
                count * repeat
                for count, repeat in zip(
                    self.template.phase_counts, self.repeats
                )
            )
        return sum(len(b.phases) * b.repeat for b in self.blocks)

    def validate(self) -> None:
        """Validate every block's phases. A lazy plan's template was
        validated when it was built."""
        if self.template is not None:
            return
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
        lowering (:func:`repro.simknl.batch.run_batch`). A lazy plan
        returns its template's. Otherwise cached until the next append;
        liveness (``bytes_total > 0``) is snapshotted at the first call.
        """
        if self.template is not None:
            return self.template.structure
        if self._structure is None:
            self._structure = tuple(b.structure() for b in self.blocks)
        return self._structure


#: ``step(i, take)``: a template block's phases as step ``i``.
TemplateStep = Callable[[int, Callable[[], float]], list[Phase]]


class PlanTemplate:
    """A plan structure shared by every plan that differs from it only
    in byte demands and repeat counts.

    ``steps`` holds one function per block: ``step(i, take)`` returns
    the block's phases as step ``i`` of the plan, giving each live flow
    ``take()`` bytes, in flow order — the order of :attr:`Plan.row`.
    Steps count repetitions across all blocks, so names such as
    ``mega3/copy-in`` follow from ``i``; the structure must not. The
    template is built from placeholder byte demands and validated once;
    its :attr:`structure` is computed on first use, and its lowered
    shape :attr:`lowered` by :mod:`repro.simknl.batch` on first
    fast-path use, so a plan that only ever runs on the reference loop
    never lowers its template.
    """

    def __init__(self, steps: Sequence[TemplateStep]) -> None:
        self.steps = tuple(steps)
        self.shape = Plan("template")
        for step in self.steps:
            self.shape._append(Block(step(0, _placeholder_bytes)))
        self.shape.validate()
        #: Each block's ``[lo, hi)`` column range in a row; ``slots``
        #: columns of byte demands precede the repeat counts.
        self.columns: list[tuple[int, int]] = []
        #: Each block's phase count.
        self.phase_counts: list[int] = []
        lo = 0
        for block in self.shape.blocks:
            hi = lo + sum(
                f.bytes_total > 0 for ph in block.phases for f in ph.flows
            )
            self.columns.append((lo, hi))
            self.phase_counts.append(len(block.phases))
            lo = hi
        self.slots = lo
        #: The shared lowered shape (a ``batch.LoweredSweep``), set by
        #: :mod:`repro.simknl.batch` on first fast-path use.
        self.lowered = None

    @functools.cached_property
    def structure(self) -> tuple:
        """The :meth:`Plan.structure` of every plan on this template."""
        return self.shape.structure()

    def blocks(self, row: Sequence[float]) -> list[Block]:
        """The blocks of the plan whose bytes row is ``row``, each
        repetition under its own step's names."""
        out = []
        start = 0
        repeats = row[self.slots:]
        for step, (lo, hi), repeat in zip(self.steps, self.columns, repeats):
            make = _repetitions(step, start, row[lo:hi])
            out.append(Block(make(0), int(repeat), make))
            start += int(repeat)
        return out


def _placeholder_bytes() -> float:
    """Byte demand of a template's live flows; rows hold the real ones."""
    return 1.0


def _repetitions(
    step: TemplateStep, start: int, values: Sequence[float]
) -> Callable[[int], list[Phase]]:
    """A :attr:`Block.make` for a template block that begins at step
    ``start``, with ``values`` as its live flows' byte demands."""
    return lambda r: step(start + r, iter(values).__next__)


#: Templates by ``(build, key)``, shared by every plan built under the
#: same key (see :func:`plan_template`). Only structures are cached,
#: never rows, plans or results.
_TEMPLATE_MEMO: dict[tuple, PlanTemplate] = {}


def plan_template(
    build: Callable[..., Sequence[TemplateStep]], *key
) -> PlanTemplate:
    """``PlanTemplate(build(*key))``, built once per process per key.

    ``build`` must be a pure function of ``key``, so the key holds
    everything the template reads (modes, thread counts, cost model,
    node config, which phases exist, multiplier floats) and nothing a
    cell of the same structure changes, such as byte counts. Errors
    ``build`` raises are not cached.
    """
    memo_key = (build, key)
    template = _TEMPLATE_MEMO.get(memo_key)
    if template is None:
        template = _TEMPLATE_MEMO[memo_key] = PlanTemplate(build(*key))
    return template


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
    """

    elapsed: float
    traffic: dict[str, float]
    phase_times: list[float]

    def traffic_gb(self, resource: str) -> float:
        """Traffic on ``resource`` in decimal GB."""
        return self.traffic.get(resource, 0.0) / 1e9


class Engine:
    """Executes plans against a fixed set of resources, one phase at a
    time: the reference loop every other evaluation must match.

    Parameters
    ----------
    resources:
        The shared bandwidth resources (memory devices, disk, ...).
    """

    def __init__(self, resources: Iterable[Resource]) -> None:
        self.resources: dict[str, Resource] = {}
        for r in resources:
            if r.name in self.resources:
                raise PlanError(f"duplicate resource {r.name!r}")
            self.resources[r.name] = r
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
        memo = _RATE_MEMO
        key = (self._res_sig, tuple(f.signature for f in live))
        cached = memo.get(key)
        if cached is None:
            rates = allocate_rates(live, self.resources)
            memo[key] = cached = [rates[id(f)] for f in live]
        return cached

    def run(self, plan: Plan) -> RunResult:
        """Execute ``plan`` phase by phase and return timing/traffic.

        The result is then recorded by :func:`observe`, so an active
        telemetry session sees the same metrics and events as for a
        fast-path run of the same plan.
        """
        plan.validate()
        clock = 0.0
        traffic: dict[str, float] = {name: 0.0 for name in self.resources}
        phase_times: list[float] = []
        for phase in plan.phases:
            t = self._run_phase(phase, traffic)
            phase_times.append(t)
            clock += t
        result = RunResult(
            elapsed=clock, traffic=traffic, phase_times=phase_times
        )
        observe(plan, result)
        return result

    def _run_phase(self, phase: Phase, traffic: dict[str, float]) -> float:
        """Run one phase; returns its elapsed time."""
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
                    continue  # drained
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


def observe(plan: Plan, result: RunResult) -> None:
    """Record one finished run of ``plan`` in the active telemetry.

    A pure function of the plan and its result, so the fast path and
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
    from repro.telemetry import names as _tn

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

"""The triple-buffered chunk pipeline of Section 3 (Fig. 2-5).

In flat and hybrid usage modes, three MCDRAM-resident buffers rotate
roles across steps: while chunk ``i`` is copied in, chunk ``i-1`` is
computed on and chunk ``i-2`` is copied out. Each step is a barrier
(``T_step = max(T_copyin, T_comp, T_copyout)``), which is exactly how
the engine executes a phase of concurrent flows. In the implicit and
cache usage modes there are no copy flows — the hardware cache moves
the data — and in DDR mode the chunk simply streams in place.

Before building a plan the pipeline checks its buffers against the
node's addressable MCDRAM, so the capacity constraints the paper
discusses (three buffers must fit in addressable MCDRAM; hybrid mode
shrinks the maximum chunk) surface as a
:class:`~repro.errors.CapacityError` rather than silent fictions.

Pipelines of one configuration differ only in their chunk sizes and
counts, so :meth:`BufferedPipeline.build_plan` emits a lazy plan: a
:class:`~repro.simknl.engine.PlanTemplate`, built once per process and
keyed on the usage mode, the pool sizes, the per-thread rates, the
compute multipliers and each block's flows, plus the cell's bytes row.
A ragged final chunk changes the block layout and so is its own key.
:func:`pipeline_spans` is the one definition of the step layout (fill,
steady state, tail); :class:`~repro.core.multilevel.ThreeLevelPipeline`
lays out its steps with it too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import CapacityError
from repro.core.chunking import Chunker
from repro.core.kernel import Kernel
from repro.core.modes import UsageMode, compute_multipliers, validate_node_mode
from repro.model.params import ModelParams
from repro.simknl.engine import Phase, Plan, RunResult, plan_template
from repro.simknl.flows import Flow
from repro.simknl.node import KNLNode
from repro.telemetry import runtime as _tm
from repro.threads.pool import PoolSet


def pipeline_spans(chunker: Chunker, depth: int = 3) -> list[tuple[int, int]]:
    """The ``[start, stop)`` step ranges of a ``depth``-stage pipeline,
    one per plan block.

    Step ``s`` of Fig. 2's triple-buffered pipeline (``depth`` 3) copies
    chunk ``s`` in, computes chunk ``s - 1`` and copies chunk ``s - 2``
    out; a sequential pipeline (``depth`` 1) handles chunk ``s`` whole.
    The fill steps ``0 .. depth - 2`` come first, then the steady state
    — every step whose chunks are all full, identical but for names —
    as one range, then one range per step that touches the partial
    final chunk or drains the pipeline. Empty ranges are left out.
    """
    steady = max(depth - 1, chunker.full_chunks)
    spans = [(s, s + 1) for s in range(depth - 1)]
    spans.append((depth - 1, steady))
    spans += [
        (s, s + 1) for s in range(steady, chunker.num_chunks + depth - 1)
    ]
    return [(start, stop) for start, stop in spans if stop > start]


def add_pipeline_steps(
    plan: Plan, chunker: Chunker, step: Callable[[int], list[Phase]]
) -> Plan:
    """Append the ``n + 2`` steps of Fig. 2's triple-buffered pipeline,
    one block per :func:`pipeline_spans` range; ``step(s)`` builds
    step ``s``."""
    for start, stop in pipeline_spans(chunker):
        plan.add_block(step, start, stop)
    return plan


#: Flow roles, in a step's flow order. In the triple-buffered pipeline
#: a role's index is also its lag: step ``s`` copies chunk ``s`` in,
#: computes chunk ``s - 1`` and copies chunk ``s - 2`` out.
_COPY_IN, _COMPUTE, _COPY_OUT = 0, 1, 2
_ROLE_NAMES = ("copy-in", "compute", "copy-out")
#: Phase-name suffix of each role in the unbuffered pipeline.
_ROLE_PHASES = ("in", "compute", "out")

#: Multipliers of a copy between DDR and MCDRAM.
_COPY = (("ddr", 1.0), ("mcdram", 1.0))


def _pipeline_steps(
    mode: UsageMode,
    buffered: bool,
    threads: tuple[int, int, int],
    s_copy: float,
    s_comp: float,
    blocks: tuple,
) -> list:
    """The template behind :meth:`BufferedPipeline.build_plan`, a pure
    function of its arguments (the template key).

    ``threads`` holds the copy-in, compute and copy-out pool sizes.
    ``blocks`` holds one entry per :func:`pipeline_spans` range: the
    flows of each of its steps as ``(role, multipliers, live)``
    triples, in flow order. A dead flow (a zero-pass kernel's compute)
    moves no bytes and takes no column of the row.
    """
    explicit = mode in (UsageMode.FLAT, UsageMode.HYBRID)

    def flow(role, multipliers, live, name, take) -> Flow:
        return Flow(
            name,
            threads[role],
            s_comp if role == _COMPUTE else s_copy,
            dict(multipliers),
            take() if live else 0.0,
        )

    def block(flows):
        if buffered:
            # Fig. 2: step s copies chunk s in, computes chunk s-1,
            # copies chunk s-2 out. Pools hold their threads for the
            # whole step and spin at the barrier: no mid-step
            # bandwidth resharing.
            def step(s: int, take) -> list[Phase]:
                made = [
                    flow(
                        role, res, live, f"{_ROLE_NAMES[role]}[{s - role}]", take
                    )
                    for role, res, live in flows
                ]
                return [Phase(f"step{s}", made, static_rates=True)]
        elif explicit:
            # Unbuffered: sequential copy-in, compute, copy-out.
            def step(i: int, take) -> list[Phase]:
                return [
                    Phase(
                        f"chunk{i}/{_ROLE_PHASES[role]}",
                        [flow(role, res, live, _ROLE_NAMES[role], take)],
                    )
                    for role, res, live in flows
                ]
        else:
            # Implicit / cache / DDR: compute-only phases; the cache (if
            # any) pulls data in on first touch, cold per chunk.
            def step(i: int, take) -> list[Phase]:
                return [
                    Phase(f"chunk{i}", [flow(*flows[0], "compute", take)])
                ]

        return step

    return [block(flows) for flows in blocks]


@dataclass
class PipelineResult:
    """Outcome of running a chunked pipeline."""

    run: RunResult
    plan: Plan
    mode: UsageMode
    num_chunks: int
    buffers_bytes: float

    @property
    def elapsed(self) -> float:
        """Simulated seconds."""
        return self.run.elapsed

    def traffic_gb(self, resource: str) -> float:
        """Physical traffic on ``resource`` in GB."""
        return self.run.traffic_gb(resource)


class BufferedPipeline:
    """Build and execute the chunked pipeline for one kernel.

    Parameters
    ----------
    node:
        Booted node (BIOS mode must match the usage mode).
    mode:
        Usage mode.
    pools:
        Thread partition. Copy pools may be empty for modes without
        explicit copies.
    chunker:
        Chunk geometry of the data set.
    kernel:
        The compute stage.
    params:
        Model parameters supplying ``s_copy``/``s_comp`` per-thread
        rates.
    buffered:
        When True (default) copy/compute/copy-out overlap across steps
        with three buffers; when False each chunk is processed
        sequentially (copy-in, compute, copy-out) with one buffer —
        MLM-sort's unbuffered style.
    per_thread_compute_rate:
        Override for the compute pool's per-thread rate (defaults to
        ``params.s_comp``).
    """

    def __init__(
        self,
        node: KNLNode,
        mode: UsageMode,
        pools: PoolSet,
        chunker: Chunker,
        kernel: Kernel,
        params: ModelParams | None = None,
        buffered: bool = True,
        per_thread_compute_rate: float | None = None,
    ) -> None:
        validate_node_mode(node, mode)
        self.node = node
        self.mode = mode
        self.pools = pools
        self.chunker = chunker
        self.kernel = kernel
        self.params = params or ModelParams()
        self.buffered = buffered
        self.s_comp = (
            per_thread_compute_rate
            if per_thread_compute_rate is not None
            else self.params.s_comp
        )

    # ---- buffer management ----------------------------------------------

    def required_buffers(self) -> int:
        """MCDRAM buffers needed: 3 when buffered, 1 otherwise, 0 for
        modes without explicit placement."""
        if self.mode in (UsageMode.FLAT, UsageMode.HYBRID):
            return 3 if self.buffered else 1
        return 0

    def _reserve_buffers(self) -> float:
        """Check the MCDRAM buffers against addressable MCDRAM.

        Returns the total bytes the buffers take. Raises
        :class:`~repro.errors.CapacityError` when they do not fit —
        the paper's chunk-size limit. Under an active telemetry session
        the reservation and its release are counted in the ``alloc.*``
        series on ``device=mcdram``.
        """
        count = self.required_buffers()
        if count == 0:
            return 0.0
        chunk_bytes = self.chunker.chunk_bytes
        nbytes = count * chunk_bytes
        if nbytes > int(self.node.addressable_mcdram):
            raise CapacityError(
                f"{count} buffers of {chunk_bytes} bytes do not fit in "
                f"addressable MCDRAM "
                f"({self.node.addressable_mcdram:.0f} bytes)"
            )
        tel = _tm.current()
        if tel.enabled:
            from repro.telemetry import names as _tn
            m = tel.metrics
            m.counter(_tn.ALLOC_REQUESTS_TOTAL).inc(count, device="mcdram")
            m.counter(_tn.ALLOC_BYTES_TOTAL).inc(nbytes, device="mcdram")
            m.gauge(_tn.ALLOC_HIGH_WATER_BYTES).set_max(
                nbytes, device="mcdram"
            )
            m.counter(_tn.ALLOC_FREES_TOTAL).inc(count, device="mcdram")
        return float(nbytes)

    # ---- plan construction -------------------------------------------------

    def _compute_scalars(self, chunk_bytes: int) -> tuple[float, tuple]:
        """The compute flow of a chunk of ``chunk_bytes``: its logical
        bytes and its resource multipliers (cold: first touch)."""
        resources = compute_multipliers(
            self.node,
            self.mode,
            working_set=chunk_bytes,
            passes=self.kernel.passes(chunk_bytes),
            write_fraction=self.kernel.write_fraction,
            cold=True,
        )
        return self.kernel.logical_bytes(chunk_bytes), tuple(resources.items())

    def build_plan(self) -> Plan:
        """Emit the step-by-step flow plan as a lazy plan.

        Every full chunk moves the same bytes, so the steps that touch
        only full chunks are identical but for their names: they form
        one repeated block (the steady state), with the pipeline fill,
        drain and partial final chunk as their own entries
        (:func:`pipeline_spans`). Per call this computes only scalars —
        chunk sizes, the compute flow's logical bytes and multipliers
        for a full and a ragged last chunk, and which flows each block
        holds. They form the plan's bytes row and the key of its
        template (:func:`_pipeline_steps`), which is built once per
        process.
        """
        chunker = self.chunker
        n = chunker.num_chunks
        explicit = self.mode in (UsageMode.FLAT, UsageMode.HYBRID)
        buffered = explicit and self.buffered
        roles = (_COPY_IN, _COMPUTE, _COPY_OUT) if explicit else (_COMPUTE,)
        computes: dict[int, tuple[float, tuple]] = {}
        blocks = []
        row: list[float] = []
        repeats = []
        for start, stop in pipeline_spans(chunker, 3 if buffered else 1):
            flows = []
            for role in roles:
                i = start - role if buffered else start
                if not 0 <= i < n:
                    continue
                size = chunker.nbytes(i)
                if role == _COMPUTE:
                    if size not in computes:
                        computes[size] = self._compute_scalars(size)
                    nbytes, res = computes[size]
                else:
                    nbytes, res = size, _COPY
                flows.append((role, res, nbytes > 0))
                if nbytes > 0:
                    row.append(nbytes)
            blocks.append(tuple(flows))
            repeats.append(stop - start)
        row.extend(repeats)
        pools = self.pools
        template = plan_template(
            _pipeline_steps,
            self.mode,
            buffered,
            (pools.copy_in, pools.compute, pools.copy_out),
            self.params.s_copy,
            self.s_comp,
            tuple(blocks),
        )
        return Plan.from_template(
            template, row, f"{self.kernel.name}/{self.mode.value}"
        )

    def prepare(self) -> Plan:
        """Build the plan without executing it, with :meth:`run`'s exact
        buffer check: an over-committed configuration raises the same
        :class:`~repro.errors.CapacityError`. The cross-cell sweep
        lowering (:mod:`repro.simknl.batch`) uses this to collect many
        cells' plans before one batched evaluation.
        """
        self._reserve_buffers()
        return self.build_plan()

    def run(self) -> PipelineResult:
        """Check the buffers, then build and execute the plan."""
        reserved = self._reserve_buffers()
        plan = self.build_plan()
        return PipelineResult(
            run=self.node.run(plan),
            plan=plan,
            mode=self.mode,
            num_chunks=self.chunker.num_chunks,
            buffers_bytes=reserved,
        )

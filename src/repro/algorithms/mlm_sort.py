"""MLM-sort and its variants (Section 4) as timed plans.

MLM-sort divides the input into MCDRAM-sized *megachunks*; within a
megachunk each thread serial-sorts one maximal chunk, a parallel
multiway merge (near memory → DDR) finishes the megachunk, and a final
multiway merge across megachunks finishes the global sort. Variants:

* **MLM-sort** — flat mode, explicit copy-in of each megachunk;
* **MLM-implicit** — the same code in hardware cache mode with no
  copies (megachunk may exceed MCDRAM — the paper's best performer);
* **MLM-ddr** — the same structure touching only DDR (ablation);
* **basic chunked sort** — the Bender et al. algorithm MLM-sort
  refines: parallel (GNU) sort per chunk in a buffered pipeline plus a
  final multiway merge.

The paper leaves *buffered* MLM-sort (overlapping the next megachunk's
copy-in with the current megachunk's merge) as future work; we
implement it behind ``MLMSortConfig.buffered_megachunks``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import ConfigError
from repro.algorithms.costs import DEFAULT_COST, SortCostModel, sort_levels
from repro.algorithms.parallel_sort import (
    _cache_stream_multipliers,
    _sort_stage,
    _stage_bands,
)
from repro.core.chunking import Chunker
from repro.core.kernel import Kernel
from repro.core.modes import UsageMode, validate_node_mode
from repro.simknl.engine import Phase, Plan, PlanTemplate, plan_template
from repro.simknl.flows import Flow
from repro.simknl.node import KNLNode, KNLNodeConfig
from repro.telemetry import runtime as _tm
from repro.threads.pool import PoolSet
from repro.units import INT64


class MegachunkSortKernel(Kernel):
    """Compute kernel of MLM-sort's megachunk stage: per-thread serial
    sorts followed by the in-megachunk multiway merge."""

    name = "mlm-megachunk-sort"

    def __init__(
        self,
        threads: int,
        cost: SortCostModel | None = None,
        order: str = "random",
        element_size: int = INT64,
    ) -> None:
        if threads < 1:
            raise ConfigError("threads must be >= 1")
        self.threads = threads
        self.cost = cost or DEFAULT_COST
        self.order = order
        self.element_size = element_size

    def passes(self, chunk_bytes: float) -> float:
        m = max(1.0, chunk_bytes / self.element_size / self.threads)
        # Serial-sort levels plus the megachunk merge pass; halved to
        # match the kernel convention (logical bytes carry the 2x).
        return (
            sort_levels(m, self.cost, order=self.order, gnu=False) + 1.0
        ) / 2.0


@dataclass(frozen=True)
class MLMSortConfig:
    """Configuration of a timed MLM-sort run."""

    n: int
    megachunk_elements: int
    mode: UsageMode = UsageMode.FLAT
    order: str = "random"
    threads: int = 256
    element_size: int = INT64
    #: Paper future work: overlap the next megachunk's copy-in with
    #: the current megachunk's merge, using dedicated copy threads.
    #: The serial-sort stage is compute-heavy, so per Section 5 only a
    #: handful of copy threads pay for themselves.
    buffered_megachunks: bool = False
    copy_in_threads: int = 4

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ConfigError("n must be >= 1")
        if self.megachunk_elements < 1:
            raise ConfigError("megachunk_elements must be >= 1")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        if self.mode is UsageMode.CACHE:
            raise ConfigError(
                "MLM-sort's chunked discipline in cache BIOS mode is the "
                "IMPLICIT usage mode"
            )
        if self.buffered_megachunks and self.copy_in_threads >= self.threads:
            raise ConfigError("copy_in_threads must leave compute threads")


def _overhead_phase(name: str, seconds: float) -> Phase:
    """A fixed-duration phase (fork/join, buffer setup) expressed as a
    resource-free flow draining ``seconds`` at unit rate."""
    return Phase(name, [Flow(name, 1, 1.0, {}, seconds)])


#: Multipliers of a copy between DDR and MCDRAM.
_COPY = {"ddr": 1.0, "mcdram": 1.0}


def _merge_multipliers(
    node: KNLNode, mode: UsageMode, nbytes: float, cost: SortCostModel
) -> dict[str, float]:
    """Per-logical-byte multipliers of a megachunk's multiway merge,
    which reads the megachunk its sort stage just wrote (resident in
    near memory in flat mode) and writes its output to DDR."""
    if mode in (UsageMode.FLAT, UsageMode.HYBRID):
        return {"mcdram": 1.0, "ddr": 1.0}  # read near, write far
    if mode is UsageMode.DDR:
        return {"ddr": 2.0}
    # IMPLICIT
    read = node.cache_model.stream(
        nbytes, passes=1, write_fraction=0.0, cold=False
    )
    return {
        "mcdram": read.mcdram_bytes / nbytes / cost.cache_bw_factor + 1.0,
        # Writes allocate in the cache and are written back to DDR.
        "ddr": read.ddr_bytes / nbytes + 1.0,
    }


def _mlm_steps(
    node_config: KNLNodeConfig,
    mode: UsageMode,
    threads: int,
    compute_threads: int,
    copy_threads: int,
    cost: SortCostModel,
    blocks: tuple,
    final: tuple | None,
) -> list:
    """The template behind :func:`mlm_sort_plan`, a pure function of
    its arguments (the template key).

    ``blocks`` holds one ``(copy_in, stage, next_copy_in, merge)``
    entry per megachunk block: whether the megachunk is copied in by
    all threads, its sort stage's shape (see
    :func:`~repro.algorithms.parallel_sort._sort_stage`), whether the
    next megachunk's copy-in hides behind the sort (buffered), and the
    merge's multipliers. ``final`` holds the final merge's multipliers,
    or None for a single megachunk.
    """
    validate_node_mode(node_config, mode)

    def megachunk(copy_in, stage, next_copy_in, merge):
        def step(i: int, take) -> list[Phase]:
            """Megachunk ``i``'s phases: setup, copy-in, sort, merge."""
            phases = []
            if cost.chunk_overhead_s > 0:
                phases.append(_overhead_phase(f"mega{i}/setup", take()))
            if copy_in:
                # All threads copy in: every megachunk when unbuffered,
                # only the first (a blocking copy-in) when buffered.
                flow = Flow("copy-in", threads, cost.s_copy, _COPY, take())
                phases.append(Phase(f"mega{i}/copy-in", [flow]))
            label = f"mega{i}/serial-sort"
            bands = _stage_bands(stage, cost.s_sort_random, cost, label)
            for band, (name, rate, res) in enumerate(bands):
                flows = [Flow(name, compute_threads, rate, res, take())]
                if band == 0 and next_copy_in:
                    # Future-work variant: hide the next megachunk's
                    # copy-in behind the (long) serial-sort stage of
                    # the current one.
                    flows.append(
                        Flow(
                            f"mega{i + 1}/copy-in",
                            copy_threads,
                            cost.s_copy,
                            _COPY,
                            take(),
                        )
                    )
                phases.append(Phase(name, flows))
            label = f"mega{i}/merge"
            flow = Flow(label, compute_threads, cost.s_merge, dict(merge), take())
            phases.append(Phase(label, [flow]))
            return phases

        return step

    steps = [megachunk(*block) for block in blocks]
    if final is not None:
        # Final multiway merge across megachunks; the paper runs it
        # without chunking, straight out of DDR.
        def final_merge(i: int, take) -> list[Phase]:
            flow = Flow("final-merge", threads, cost.s_merge, dict(final), take())
            return [Phase("final-merge", [flow])]

        steps.append(final_merge)
    return steps


def mlm_sort_planner(
    node: KNLNode,
    mode: UsageMode,
    order: str,
    threads: int,
    cost: SortCostModel | None = None,
    element_size: int = INT64,
    buffered_megachunks: bool = False,
    copy_in_threads: int = 4,
) -> Callable[[int, int], Plan]:
    """The group builder of MLM-sort / MLM-implicit / MLM-ddr plans:
    ``plan(n, megachunk_elements)``, the other settings as in (and
    checked by) :class:`MLMSortConfig`.

    A plan is its template (:func:`_mlm_steps`, built once per process)
    and bytes row, both made of scalars: megachunk sizes and counts,
    sort levels, the cache split and cache-stream multipliers. While it
    lives the planner holds each megachunk size's scalars and each
    template it looked up.
    """
    cost = cost or DEFAULT_COST
    explicit = mode in (UsageMode.FLAT, UsageMode.HYBRID)
    buffered = explicit and buffered_megachunks
    copy_threads = copy_in_threads if buffered else 0
    compute_threads = threads - copy_threads
    capped = explicit and not buffered_megachunks
    budget = node.addressable_mcdram
    scalars: dict[float, tuple] = {}
    templates: dict[tuple, PlanTemplate] = {}
    label = f"mlm-{mode.value}/{order}/n="

    def block(mb: float) -> tuple:
        """A ``mb``-byte megachunk's ``(stage, band bytes, merge)``."""
        if mb not in scalars:
            m_elems = max(1.0, mb / element_size / compute_threads)
            levels = sort_levels(m_elems, cost, order=order, gnu=False)
            stage, band_bytes = _sort_stage(node, mode, mb, levels, cost, mb)
            merge = _merge_multipliers(node, mode, mb, cost)
            scalars[mb] = (stage, band_bytes, tuple(merge.items()))
        return scalars[mb]

    def plan(n: int, megachunk_elements: int) -> Plan:
        if n < 1:
            raise ConfigError("n must be >= 1")
        if megachunk_elements < 1:
            raise ConfigError("megachunk_elements must be >= 1")
        nbytes = float(n * element_size)
        chunker = Chunker.from_elements(
            n, min(megachunk_elements, n), element_size=element_size
        )
        n_mega = chunker.num_chunks
        tel = _tm.current()
        if tel.enabled:
            from repro.telemetry import names as _tn
            tel.metrics.counter(_tn.SORT_MEGACHUNKS_TOTAL).inc(n_mega)
        # Equal full megachunks are one repeated block. Buffered, the
        # first megachunk (blocking copy-in) and the ones whose
        # successor is partial or absent differ, so they stand alone.
        full = chunker.full_chunks
        steady = (1, max(1, full - 1)) if buffered else (0, full)
        spans = [(0, steady[0]), steady]
        spans += [(i, i + 1) for i in range(steady[1], n_mega)]
        shape = []
        blocks = []
        row: list[float] = []
        repeats = []
        for start, stop in spans:
            if stop <= start:
                continue
            mb = float(chunker.nbytes(start))
            stage, band_bytes, merge = block(mb)
            copy_in = explicit and (not buffered or start == 0)
            next_copy_in = buffered and start + 1 < n_mega
            shape.append((mb, copy_in, next_copy_in))
            blocks.append((copy_in, stage, next_copy_in, merge))
            if cost.chunk_overhead_s > 0:
                row.append(cost.chunk_overhead_s)
            if copy_in:
                row.append(mb)
            row.append(band_bytes[0])
            if next_copy_in:
                row.append(float(chunker.nbytes(start + 1)))
            row.extend(band_bytes[1:])
            row.append(mb)
            repeats.append(stop - start)
        final = None
        if n_mega > 1:
            if mode is UsageMode.IMPLICIT:
                res = _cache_stream_multipliers(node, nbytes, cost)
            else:
                res = {"ddr": 2.0}
            final = tuple(res.items())
            row.append(nbytes)
            repeats.append(1)
        row.extend(repeats)
        # Within the planner, the megachunk sizes and flags stand for
        # the blocks: no node config, cost model or mode is hashed.
        key = (tuple(shape), final)
        if key not in templates:
            templates[key] = plan_template(
                _mlm_steps,
                node.config,
                mode,
                threads,
                compute_threads,
                copy_threads,
                cost,
                tuple(blocks),
                final,
            )
        # After the template, whose build checks the node's boot mode
        # first; the megachunk size is checked per cell.
        if capped and chunker.chunk_bytes > budget:
            raise ConfigError(
                f"megachunk of {chunker.chunk_bytes} bytes exceeds "
                f"addressable MCDRAM ({budget:.0f})"
            )
        return Plan.from_template(templates[key], row, f"{label}{n}")

    return plan


def mlm_sort_plan(
    node: KNLNode,
    config: MLMSortConfig,
    cost: SortCostModel | None = None,
) -> Plan:
    """Timed flow plan for MLM-sort / MLM-implicit / MLM-ddr: the
    one-cell case of :func:`mlm_sort_planner`."""
    c = config
    return mlm_sort_planner(
        node, c.mode, c.order, c.threads, cost, c.element_size,
        c.buffered_megachunks, c.copy_in_threads,
    )(c.n, c.megachunk_elements)


class ParallelSortKernel(Kernel):
    """Compute kernel of the basic chunked sort: a GNU-style parallel
    sort of one chunk, expressed as effective streaming passes."""

    name = "parallel-sort"

    def __init__(
        self,
        threads: int,
        cost: SortCostModel,
        order: str = "random",
        element_size: int = INT64,
    ) -> None:
        if threads < 1:
            raise ConfigError("threads must be >= 1")
        self.threads = threads
        self.cost = cost
        self.order = order
        self.element_size = element_size

    def passes(self, chunk_bytes: float) -> float:
        m = max(1.0, chunk_bytes / self.element_size / self.threads)
        # Local sort levels plus one multiway-merge pass; the factor
        # 1/2 converts levels (single-direction sweeps) into the
        # kernel convention where logical bytes already include the 2x.
        return (
            sort_levels(m, self.cost, order=self.order, gnu=True) + 1.0
        ) / 2.0


def basic_chunked_sort_plan(
    node: KNLNode,
    n: int,
    chunk_elements: int,
    order: str = "random",
    threads: int = 256,
    copy_in_threads: int = 10,
    cost: SortCostModel | None = None,
    element_size: int = INT64,
) -> Plan:
    """Timed plan for the Bender-style buffered basic chunked sort.

    Triple-buffered pipeline (copy-in / parallel-sort / copy-out) over
    MCDRAM-sized chunks, then the final multiway merge in DDR. Used by
    the corroboration experiment (~30 % speedup, ~2.5x DDR-traffic
    reduction versus the unchunked GNU baseline).
    """
    from repro.core.buffering import BufferedPipeline
    from repro.model.params import ModelParams

    validate_node_mode(node, UsageMode.FLAT)
    cost = cost or DEFAULT_COST
    nbytes = float(n * element_size)
    chunker = Chunker.from_elements(n, chunk_elements, element_size)
    compute = threads - 2 * copy_in_threads
    if compute < 1:
        raise ConfigError("copy pools leave no compute threads")
    pools = PoolSet.split(node, compute=compute, copy_in=copy_in_threads)
    kernel = ParallelSortKernel(compute, cost, order, element_size)
    pipe = BufferedPipeline(
        node,
        UsageMode.FLAT,
        pools,
        chunker,
        kernel,
        ModelParams(s_copy=cost.s_copy),
        per_thread_compute_rate=cost.s_sort_random,
    )
    plan = pipe.build_plan()
    plan.name = f"basic-chunked/{order}/n={n}"
    if chunker.num_chunks > 1:
        plan.add(
            Phase(
                "final-merge",
                [
                    Flow(
                        "final-merge",
                        threads,
                        cost.s_merge,
                        {"ddr": 2.0},
                        nbytes,
                    )
                ],
            )
        )
    return plan

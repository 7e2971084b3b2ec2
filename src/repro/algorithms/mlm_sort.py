"""MLM-sort and its variants (Section 4), functional and timed.

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

import numpy as np

from repro.errors import ConfigError
from repro.algorithms.costs import SortCostModel, sort_levels
from repro.algorithms.multiway_merge import multiway_merge
from repro.algorithms.parallel_sort import (
    _cache_stream_multipliers,
    _sort_phases,
    gnu_parallel_sort,
)
from repro.algorithms.serial_sort import serial_sort
from repro.core.chunking import Chunker
from repro.core.kernel import Kernel
from repro.core.modes import UsageMode, validate_node_mode
from repro.simknl.engine import Phase, Plan
from repro.simknl.flows import Flow
from repro.simknl.node import KNLNode
from repro.telemetry import names as _tn
from repro.telemetry import runtime as _tm
from repro.threads.pool import PoolSet
from repro.units import INT64


# ---------------------------------------------------------------------------
# Functional implementations
# ---------------------------------------------------------------------------


def _sort_megachunk(mega: np.ndarray, threads: int) -> np.ndarray:
    """Sort one megachunk: per-thread serial sorts + multiway merge."""
    k = min(threads, len(mega))
    bounds = [len(mega) * t // k for t in range(k + 1)]
    runs = [serial_sort(mega[bounds[t] : bounds[t + 1]]) for t in range(k)]
    tel = _tm.current()
    if tel.enabled:
        tel.metrics.counter(_tn.SORT_MEGACHUNKS_TOTAL).inc()
        tel.metrics.histogram(_tn.SORT_MERGE_FAN_IN).observe(len(runs))
        tel.events.emit(_tn.EVENT_SORT_MERGE, fan_in=len(runs))
    return multiway_merge(runs)


def mlm_sort(
    arr: np.ndarray, megachunk_elements: int, threads: int = 4
) -> np.ndarray:
    """Functional MLM-sort. Returns a new sorted array.

    Parameters
    ----------
    arr:
        One-dimensional input.
    megachunk_elements:
        Megachunk size in elements (the near-memory budget).
    threads:
        Serial-sort chunks per megachunk (one per thread).
    """
    if arr.ndim != 1:
        raise ConfigError("expects a one-dimensional array")
    if megachunk_elements < 1:
        raise ConfigError("megachunk_elements must be >= 1")
    if threads < 1:
        raise ConfigError("threads must be >= 1")
    n = len(arr)
    if n == 0:
        return arr.copy()
    chunker = Chunker.from_elements(
        n, min(megachunk_elements, n), element_size=arr.itemsize
    )
    megachunks = [
        _sort_megachunk(mega, threads) for mega in chunker.split_array(arr)
    ]
    tel = _tm.current()
    if tel.enabled and len(megachunks) > 1:
        tel.metrics.histogram(_tn.SORT_MERGE_FAN_IN).observe(len(megachunks))
        tel.events.emit(_tn.EVENT_SORT_MERGE, fan_in=len(megachunks))
    return multiway_merge(megachunks)


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
        self.cost = cost or SortCostModel()
        self.order = order
        self.element_size = element_size

    def passes(self, chunk_bytes: float) -> float:
        m = max(1.0, chunk_bytes / self.element_size / self.threads)
        # Serial-sort levels plus the megachunk merge pass; halved to
        # match the kernel convention (logical bytes carry the 2x).
        return (
            sort_levels(m, self.cost, order=self.order, gnu=False) + 1.0
        ) / 2.0

    def apply(self, chunk: np.ndarray) -> np.ndarray:
        return _sort_megachunk(chunk, self.threads)


def basic_chunked_sort(
    arr: np.ndarray, chunk_elements: int, threads: int = 4
) -> np.ndarray:
    """Functional Bender-style basic chunked sort.

    Each chunk is sorted with the *parallel* GNU-style sort (contrast
    MLM-sort's serial per-thread sorts), then a multiway merge
    finishes.
    """
    if arr.ndim != 1:
        raise ConfigError("expects a one-dimensional array")
    if len(arr) == 0:
        return arr.copy()
    chunker = Chunker.from_elements(
        len(arr), min(chunk_elements, len(arr)), element_size=arr.itemsize
    )
    runs = [
        gnu_parallel_sort(c, threads=threads) for c in chunker.split_array(arr)
    ]
    return multiway_merge(runs)


# ---------------------------------------------------------------------------
# Timed plans
# ---------------------------------------------------------------------------


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


def _merge_flows_to_ddr(
    node: KNLNode,
    mode: UsageMode,
    nbytes: float,
    threads: int,
    cost: SortCostModel,
    resident: bool,
    label: str,
) -> list[Flow]:
    """Flows of a multiway merge writing its output to DDR.

    ``resident``: whether the merge's input currently sits in near
    memory (flat mode) / was just written by the sort stage (cache
    modes).
    """
    if mode in (UsageMode.FLAT, UsageMode.HYBRID):
        res = {"mcdram": 1.0, "ddr": 1.0}  # read near, write far
    elif mode is UsageMode.DDR:
        res = {"ddr": 2.0}
    else:  # IMPLICIT
        cache = node.cache_model
        read = cache.stream(nbytes, passes=1, write_fraction=0.0, cold=not resident)
        res = {
            "mcdram": read.mcdram_bytes / nbytes / cost.cache_bw_factor + 1.0,
            # Writes allocate in the cache and are written back to DDR.
            "ddr": read.ddr_bytes / nbytes + 1.0,
        }
    return [Flow(label, threads, cost.s_merge, res, nbytes)]


def mlm_sort_plan(
    node: KNLNode,
    config: MLMSortConfig,
    cost: SortCostModel | None = None,
) -> Plan:
    """Timed flow plan for MLM-sort / MLM-implicit / MLM-ddr."""
    cfg = config
    validate_node_mode(node, cfg.mode)
    cost = cost or SortCostModel()
    nbytes = float(cfg.n * cfg.element_size)
    chunker = Chunker.from_elements(
        cfg.n,
        min(cfg.megachunk_elements, cfg.n),
        element_size=cfg.element_size,
    )
    explicit = cfg.mode in (UsageMode.FLAT, UsageMode.HYBRID)
    if explicit and not cfg.buffered_megachunks:
        budget = node.addressable_mcdram
        if chunker.chunk_bytes > budget:
            raise ConfigError(
                f"megachunk of {chunker.chunk_bytes} bytes exceeds "
                f"addressable MCDRAM ({budget:.0f})"
            )

    buffered = explicit and cfg.buffered_megachunks
    compute_threads = cfg.threads
    copy_threads = 0
    if buffered:
        copy_threads = cfg.copy_in_threads
        compute_threads = cfg.threads - copy_threads

    n_mega = chunker.num_chunks

    def megachunk(i: int) -> list[Phase]:
        """Megachunk ``i``'s phases: setup, copy-in, sort, merge."""
        mb = float(chunker.nbytes(i))
        phases = []
        if cost.chunk_overhead_s > 0:
            phases.append(
                _overhead_phase(f"mega{i}/setup", cost.chunk_overhead_s)
            )
        m_elems = max(1.0, mb / cfg.element_size / compute_threads)
        levels = sort_levels(m_elems, cost, order=cfg.order, gnu=False)
        if explicit and (not buffered or i == 0):
            # All threads copy in: every megachunk when unbuffered, only
            # the first (a blocking copy-in) when buffered.
            phases.append(
                Phase(
                    f"mega{i}/copy-in",
                    [
                        Flow(
                            "copy-in",
                            cfg.threads,
                            cost.s_copy,
                            {"ddr": 1.0, "mcdram": 1.0},
                            mb,
                        )
                    ],
                )
            )
        sort_phases = _sort_phases(
            node,
            cfg.mode,
            mb,
            levels,
            compute_threads,
            cost.s_sort_random,
            cost,
            working_set=mb,
            label=f"mega{i}/serial-sort",
        )
        if buffered and i + 1 < n_mega:
            # Future-work variant: hide the next megachunk's copy-in
            # behind the (long) serial-sort stage of the current one.
            sort_phases[0].flows.append(
                Flow(
                    f"mega{i + 1}/copy-in",
                    copy_threads,
                    cost.s_copy,
                    {"ddr": 1.0, "mcdram": 1.0},
                    float(chunker.nbytes(i + 1)),
                )
            )
        phases.extend(sort_phases)
        merge_flows = _merge_flows_to_ddr(
            node,
            cfg.mode,
            mb,
            compute_threads,
            cost,
            resident=True,
            label=f"mega{i}/merge",
        )
        phases.append(Phase(f"mega{i}/merge", merge_flows))
        return phases

    plan = Plan(name=f"mlm-{cfg.mode.value}/{cfg.order}/n={cfg.n}")
    tel = _tm.current()
    if tel.enabled:
        tel.metrics.counter(_tn.SORT_MEGACHUNKS_TOTAL).inc(n_mega)
    # Equal full megachunks are one repeated block. Buffered, the first
    # megachunk (blocking copy-in) and the ones whose successor is
    # partial or absent differ, so they stand alone.
    full = chunker.full_chunks
    steady = (1, max(1, full - 1)) if buffered else (0, full)
    plan.add_block(megachunk, 0, steady[0])
    plan.add_block(megachunk, *steady)
    for i in range(steady[1], n_mega):
        plan.add_block(megachunk, i, i + 1)

    if n_mega > 1:
        # Final multiway merge across megachunks; the paper runs it
        # without chunking, straight out of DDR.
        if cfg.mode is UsageMode.IMPLICIT:
            res = _cache_stream_multipliers(node, nbytes, cost)
        else:
            res = {"ddr": 2.0}
        plan.add(
            Phase(
                "final-merge",
                [Flow("final-merge", cfg.threads, cost.s_merge, res, nbytes)],
            )
        )
    return plan


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

    def apply(self, chunk: np.ndarray) -> np.ndarray:
        return gnu_parallel_sort(chunk, threads=min(self.threads, 8))


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
    cost = cost or SortCostModel()
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

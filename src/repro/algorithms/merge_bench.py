"""The streaming merge benchmark of Section 5.

Each chunk is dispersed among the compute threads; every thread chops
its portion in half and merges the two halves, ``repeats`` times. The
repeat count scales compute work while the copy work stays constant —
the knob that exposes the compute/copy thread trade-off the model
predicts (Table 3, Fig. 8).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.core.buffering import BufferedPipeline, PipelineResult
from repro.core.chunking import Chunker
from repro.core.kernel import StreamKernel
from repro.core.modes import UsageMode
from repro.model.params import ModelParams
from repro.simknl.node import KNLNode
from repro.threads.pool import PoolSet
from repro.units import GB, GiB, INT64


def merge_bench_kernel(repeats: int) -> StreamKernel:
    """The benchmark's compute stage as a kernel: ``repeats`` streaming
    passes, each a halve-and-merge."""
    if repeats < 1:
        raise ConfigError("repeats must be >= 1")
    return StreamKernel(passes=repeats, name=f"merge-x{repeats}")


@dataclass(frozen=True)
class MergeBenchConfig:
    """One benchmark configuration.

    Defaults follow the paper: 14.9 GB data, 256-thread budget,
    symmetric copy pools, 1 GiB chunks in flat mode.
    """

    repeats: int = 1
    copy_in_threads: int = 8
    total_threads: int = 256
    data_bytes: int = int(14.9 * GB) // INT64 * INT64
    chunk_bytes: int = GiB
    mode: UsageMode = UsageMode.FLAT

    def __post_init__(self) -> None:
        if self.repeats < 1:
            raise ConfigError("repeats must be >= 1")
        if self.copy_in_threads < 0:
            raise ConfigError("copy_in_threads must be non-negative")
        if self.mode in (UsageMode.FLAT, UsageMode.HYBRID):
            if self.copy_in_threads < 1:
                raise ConfigError("explicit modes need copy threads")
            if self.total_threads <= 2 * self.copy_in_threads:
                raise ConfigError("copy pools leave no compute threads")

    @property
    def compute_threads(self) -> int:
        """Threads left for the compute pool."""
        if self.mode in (UsageMode.FLAT, UsageMode.HYBRID):
            return self.total_threads - 2 * self.copy_in_threads
        return self.total_threads


def build_merge_bench(
    node: KNLNode,
    config: MergeBenchConfig,
    params: ModelParams | None = None,
) -> BufferedPipeline:
    """Assemble the benchmark's pipeline without running it."""
    params = params or ModelParams()
    cfg = config
    chunker = Chunker(cfg.data_bytes, cfg.chunk_bytes)
    if cfg.mode in (UsageMode.FLAT, UsageMode.HYBRID):
        pools = PoolSet.split(
            node, compute=cfg.compute_threads, copy_in=cfg.copy_in_threads
        )
    else:
        pools = PoolSet.compute_only(node, threads=cfg.total_threads)
    return BufferedPipeline(
        node,
        cfg.mode,
        pools,
        chunker,
        merge_bench_kernel(cfg.repeats),
        params,
    )


def run_merge_bench(
    node: KNLNode,
    config: MergeBenchConfig,
    params: ModelParams | None = None,
) -> PipelineResult:
    """Execute the benchmark on the simulated node."""
    return build_merge_bench(node, config, params).run()


def sweep_merge_bench(
    node: KNLNode,
    repeats: int,
    copy_thread_values: list[int],
    params: ModelParams | None = None,
    total_threads: int = 256,
) -> dict[int, float]:
    """Empirical time for each candidate copy-thread count (Fig. 8b)."""
    out: dict[int, float] = {}
    for p in copy_thread_values:
        cfg = MergeBenchConfig(
            repeats=repeats, copy_in_threads=p, total_threads=total_threads
        )
        out[p] = run_merge_bench(node, cfg, params).elapsed
    return out


def pick_optimal_copy_threads(
    times: dict[int, float], tolerance: float = 0.03
) -> int:
    """The empirically best copy-thread count among timed candidates
    (the paper tests powers of two: 1, 2, 4, 8, 16, 32).

    Among candidates within ``tolerance`` of the fastest time, the
    smallest thread count wins — run-to-run noise on real hardware
    (the paper's Table 1 standard deviations are a few percent) makes
    such near-ties indistinguishable, and fewer copy threads leave
    more resources to the application.
    """
    t_min = min(times.values())
    return min(p for p, t in times.items() if t <= t_min * (1 + tolerance))

"""Double-level chunking over a three-level memory (NVM / DDR / MCDRAM).

Implements the paper's future-work sketch: when the data set lives in
a high-capacity, low-bandwidth third level, chunking happens twice —
*outer* chunks stage NVM → DDR while *inner* chunks stage DDR → MCDRAM
for compute, each level with its own copy pools and overlap.

Three strategies are provided for comparison:

* ``direct``   — compute streams straight from NVM (no chunking);
* ``single``   — one-level chunking NVM → MCDRAM (skipping DDR);
* ``double``   — the full two-level pipeline: the outer copy of the
  next chunk overlaps the inner pipeline of the current one.

The paper's conclusion sketches this future work; chunk geometry
follows Section 3.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import CapacityError, ConfigError
from repro.core.buffering import add_pipeline_steps
from repro.core.chunking import Chunker
from repro.core.kernel import Kernel
from repro.model.params import ModelParams
from repro.simknl.batch import run_batch
from repro.simknl.engine import Engine, Phase, Plan, RunResult
from repro.simknl.flows import Flow
from repro.simknl.node import KNLNode, MemoryMode
from repro.simknl.nvm import nvm_device
from repro.units import GiB

#: The strategies :meth:`ThreeLevelPipeline.build_plan` emits, in the
#: order :meth:`ThreeLevelPipeline.compare` runs them.
STRATEGIES = ("direct", "single", "double")


@dataclass(frozen=True)
class ThreeLevelConfig:
    """Configuration of a two-level chunking run.

    Parameters
    ----------
    data_bytes:
        Data set size resident in NVM.
    outer_chunk_bytes:
        NVM -> DDR staging chunk (must fit a DDR staging area).
    inner_chunk_bytes:
        DDR -> MCDRAM compute chunk (3 buffers must fit MCDRAM).
    outer_copy_threads / inner_copy_threads:
        Per-direction copy pool sizes at each level.
    compute_threads:
        Compute pool size.
    s_nvm_copy:
        Per-thread NVM<->DDR copy rate (NVM latency-bound, below
        ``s_copy``).
    """

    data_bytes: int
    outer_chunk_bytes: int = 8 * GiB
    inner_chunk_bytes: int = 4 * GiB
    outer_copy_threads: int = 8
    inner_copy_threads: int = 8
    compute_threads: int = 224
    s_nvm_copy: float = 0.6e9

    def __post_init__(self) -> None:
        if self.data_bytes <= 0:
            raise ConfigError("data_bytes must be positive")
        if self.outer_chunk_bytes <= 0 or self.inner_chunk_bytes <= 0:
            raise ConfigError("chunk sizes must be positive")
        if self.inner_chunk_bytes > self.outer_chunk_bytes:
            raise ConfigError("inner chunk cannot exceed outer chunk")
        for name in (
            "outer_copy_threads",
            "inner_copy_threads",
            "compute_threads",
        ):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.s_nvm_copy <= 0:
            raise ConfigError("s_nvm_copy must be positive")


class ThreeLevelPipeline:
    """Builds and runs NVM-resident kernels on an extended node.

    The node must be booted flat; the NVM device is attached as an
    extra resource.
    """

    def __init__(
        self,
        node: KNLNode,
        kernel: Kernel,
        config: ThreeLevelConfig,
        params: ModelParams | None = None,
        nvm_bandwidth: float | None = None,
    ) -> None:
        if node.mode is not MemoryMode.FLAT:
            raise ConfigError("three-level pipeline requires flat mode")
        self.node = node
        self.kernel = kernel
        self.config = config
        self.params = params or ModelParams()
        if nvm_bandwidth is not None and nvm_bandwidth <= 0:
            raise ConfigError(
                f"nvm_bandwidth must be positive, got {nvm_bandwidth}"
            )
        self.nvm = (
            nvm_device(bandwidth=nvm_bandwidth)
            if nvm_bandwidth is not None
            else nvm_device()
        )
        if config.data_bytes > self.nvm.capacity:
            raise CapacityError("data set exceeds NVM capacity")
        if 3 * config.inner_chunk_bytes > node.addressable_mcdram:
            raise CapacityError("3 inner buffers exceed addressable MCDRAM")
        if 2 * config.outer_chunk_bytes > node.ddr.capacity:
            raise CapacityError("2 outer staging buffers exceed DDR")
        # One engine serves every strategy of this pipeline: the
        # memoized water-filling solves are shared across run()/compare()
        # calls instead of being rebuilt per strategy.
        self._engine = Engine([*node.resources(), self.nvm.resource()])

    # ---- flow builders ---------------------------------------------------

    def _outer_copy(self, nbytes: float, label: str) -> Flow:
        return Flow(
            label,
            self.config.outer_copy_threads,
            self.config.s_nvm_copy,
            {"nvm": 1.0, "ddr": 1.0},
            nbytes,
        )

    def _inner_copy(self, nbytes: float, label: str) -> Flow:
        return Flow(
            label,
            self.config.inner_copy_threads,
            self.params.s_copy,
            {"ddr": 1.0, "mcdram": 1.0},
            nbytes,
        )

    def _compute(self, nbytes: float, resources: dict, label: str) -> Flow:
        return Flow(
            label,
            self.config.compute_threads,
            self.params.s_comp,
            resources,
            self.kernel.logical_bytes(nbytes),
        )

    # ---- strategies --------------------------------------------------------

    def build_plan(self, strategy: str = "double") -> Plan:
        """Emit the plan for one of the three strategies."""
        if strategy == "direct":
            return self._plan_direct()
        if strategy == "single":
            return self._plan_single()
        if strategy == "double":
            return self._plan_double()
        raise ConfigError(f"unknown strategy {strategy!r}")

    def _plan_direct(self) -> Plan:
        """Compute streams straight out of NVM."""
        plan = Plan("three-level/direct")
        plan.add(
            Phase(
                "compute",
                [
                    self._compute(
                        self.config.data_bytes, {"nvm": 1.0}, "compute"
                    )
                ],
            )
        )
        return plan

    def _plan_single(self) -> Plan:
        """One-level chunking NVM -> MCDRAM, triple buffered."""
        cfg = self.config
        chunker = Chunker(cfg.data_bytes, cfg.inner_chunk_bytes)
        n = chunker.num_chunks
        size = chunker.nbytes

        def step(s: int) -> list[Phase]:
            flows = []
            if s < n:
                flows.append(
                    Flow(
                        f"copy-in[{s}]",
                        cfg.outer_copy_threads,
                        cfg.s_nvm_copy,
                        {"nvm": 1.0, "mcdram": 1.0},
                        size(s),
                    )
                )
            if 0 <= s - 1 < n:
                flows.append(
                    self._compute(
                        size(s - 1), {"mcdram": 1.0}, f"compute[{s - 1}]"
                    )
                )
            if 0 <= s - 2 < n:
                flows.append(
                    Flow(
                        f"copy-out[{s - 2}]",
                        cfg.outer_copy_threads,
                        cfg.s_nvm_copy,
                        {"nvm": 1.0, "mcdram": 1.0},
                        size(s - 2),
                    )
                )
            return [Phase(f"step{s}", flows, static_rates=True)]

        return add_pipeline_steps(Plan("three-level/single"), chunker, step)

    def _plan_double(self) -> Plan:
        """Two-level pipeline: outer staging overlaps inner compute."""
        cfg = self.config
        outer = Chunker(cfg.data_bytes, cfg.outer_chunk_bytes).chunks()
        plan = Plan("three-level/double")
        # Prime: stage the first outer chunk into DDR.
        plan.add(
            Phase(
                "outer0/stage-in",
                [self._outer_copy(outer[0].nbytes, "outer-in[0]")],
            )
        )
        for oc in outer:
            # Inner triple-buffered pipeline over this outer chunk;
            # the *next* outer chunk streams in concurrently, and the
            # *previous* one streams back out.
            background = []
            if oc.index + 1 < len(outer):
                nxt = outer[oc.index + 1]
                background.append(
                    self._outer_copy(nxt.nbytes, f"outer-in[{nxt.index}]")
                )
            if oc.index > 0:
                prev = outer[oc.index - 1]
                background.append(
                    self._outer_copy(prev.nbytes, f"outer-out[{prev.index}]")
                )

            inner = Chunker(oc.nbytes, cfg.inner_chunk_bytes)

            def step(
                s: int, oc=oc, inner=inner, background=background
            ) -> list[Phase]:
                n = inner.num_chunks
                size = inner.nbytes
                flows = []
                if s < n:
                    flows.append(self._inner_copy(size(s), f"inner-in[{s}]"))
                if 0 <= s - 1 < n:
                    flows.append(
                        self._compute(
                            size(s - 1), {"mcdram": 1.0}, f"compute[{s - 1}]"
                        )
                    )
                if 0 <= s - 2 < n:
                    flows.append(
                        self._inner_copy(size(s - 2), f"inner-out[{s - 2}]")
                    )
                # Spread each background outer transfer evenly over the
                # inner steps; the final step takes whatever remains so
                # the per-step shares sum exactly to bytes_total.
                for bg in background:
                    share = bg.bytes_total // (n + 2)
                    take = share if s <= n else bg.bytes_total - (n + 1) * share
                    if take > 0:
                        flows.append(
                            Flow(
                                bg.name,
                                bg.threads,
                                bg.per_thread_rate,
                                dict(bg.resources),
                                take,
                            )
                        )
                return [
                    Phase(f"outer{oc.index}/step{s}", flows, static_rates=False)
                ]

            add_pipeline_steps(plan, inner, step)
        # Drain: stage the last outer chunk back to NVM.
        plan.add(
            Phase(
                "drain/stage-out",
                [self._outer_copy(outer[-1].nbytes, "outer-out[last]")],
            )
        )
        return plan

    # ---- execution ---------------------------------------------------------

    def run(self, strategy: str = "double") -> RunResult:
        """Execute one strategy on the pipeline's shared engine.

        The engine is built once per pipeline (not per call), so the
        memoized water-filling solves are reused across strategies —
        ``single`` and ``double`` emit structurally identical inner
        steps — and the repeated steady-state blocks of ``single`` and
        ``double`` take :func:`~repro.simknl.batch.run_batch`'s one-row
        fast path.
        """
        plan = self.build_plan(strategy)
        return run_batch(self._engine, [plan])[0]

    def compare(self) -> dict[str, RunResult]:
        """Run all three strategies on the shared engine."""
        return {s: self.run(s) for s in STRATEGIES}

"""Fault-tolerant chunked execution: the graceful-degradation layer.

:class:`ResilientPipeline` wraps the chunked execution discipline of
:class:`~repro.core.buffering.BufferedPipeline` with the recovery
paths a production system needs when the stack misbehaves:

* **per-chunk retry** — a chunk hit by a transient fault is retried up
  to a bounded budget before the run aborts with
  :class:`~repro.errors.RetryExhaustedError`;
* **straggler detection** — a chunk whose simulated time exceeds
  ``straggler_factor`` x the median of its predecessors is re-run once
  and the better time kept (the classic speculative-execution move);
* **allocation fallback** — each chunk's MCDRAM buffer goes through
  the fault-aware memkind heap: an injected allocation failure lands
  the buffer in DDR (counted, warned) and that chunk runs the DDR
  path, exactly the ``HBW_PREFERRED`` discipline;
* **mode degradation** — when MCDRAM becomes unusable (its effective
  bandwidth no longer beats DDR, or its region cannot hold a buffer),
  the remaining chunks permanently downgrade from the FLAT/HYBRID
  plan to the MLM-ddr path. Functional correctness is preserved: the
  same chunks are processed, just placed and timed differently.

Capacity-loss and worker-loss fault events recorded by the engine are
applied between chunks: the heap region shrinks (live buffers
survive) and the thread pools re-split between compute and copy roles.

Extension beyond the paper (DESIGN.md Section 7) layered over the
Section 3 / Fig. 2 chunked pipeline.
"""

from __future__ import annotations

import statistics
import warnings
from dataclasses import dataclass, field

from repro.core.chunking import Chunk, Chunker
from repro.core.kernel import Kernel
from repro.core.modes import UsageMode, compute_multipliers, validate_node_mode
from repro.errors import (
    AllocationError,
    CapacityError,
    ConfigError,
    DegradedModeWarning,
    RetryExhaustedError,
    TransientFaultError,
)
from repro.faults import FaultCounters, FaultInjector, FaultKind
from repro.memkind.allocator import Heap
from repro.memkind.kinds import MEMKIND_HBW
from repro.model.params import ModelParams
from repro.simknl.engine import Engine, Phase, Plan
from repro.simknl.flows import Flow
from repro.simknl.node import KNLNode
from repro.telemetry import names as _tn
from repro.telemetry import runtime as _tm
from repro.threads.pool import PoolSet

#: Copy threads per direction used when no pool split is supplied.
_DEFAULT_COPY_THREADS = 8


@dataclass
class ChunkOutcome:
    """What happened to one chunk."""

    index: int
    elapsed: float
    attempts: int
    device: str
    straggler: bool = False


@dataclass
class ResilienceReport:
    """Outcome of a resilient run, including the degradation ledger."""

    elapsed: float
    traffic: dict[str, float]
    chunks: list[ChunkOutcome]
    counters: FaultCounters
    mode: UsageMode
    degraded_mode: bool = False
    degraded_at_chunk: int | None = None
    fault_log: list[str] = field(default_factory=list)

    def traffic_gb(self, resource: str) -> float:
        """Physical traffic on ``resource`` in decimal GB."""
        return self.traffic.get(resource, 0.0) / 1e9

    @property
    def total_attempts(self) -> int:
        """Chunk executions including retries and straggler re-runs."""
        return sum(c.attempts for c in self.chunks)

    @property
    def recovery_events(self) -> int:
        """Fallback/retry/degradation actions taken during the run."""
        return self.counters.recovery_events


class ResilientPipeline:
    """Chunk-at-a-time execution with retries and degradation paths.

    Parameters
    ----------
    node:
        Booted node (BIOS mode must match ``mode``).
    mode:
        Usage mode the run *starts* in; FLAT/HYBRID may degrade to DDR.
    chunker:
        Chunk geometry of the data set.
    kernel:
        The compute stage (timed and, for :meth:`run_functional`,
        functional).
    pools:
        Thread partition; defaults to a standard compute/copy split
        for explicit modes and compute-only otherwise.
    params:
        Model parameters supplying ``s_copy``/``s_comp``.
    injector:
        Optional :class:`~repro.faults.FaultInjector`; without one the
        pipeline still retries stragglers but sees no faults.
    max_chunk_retries:
        Transient-fault retries allowed per chunk before aborting.
    straggler_factor:
        A chunk slower than this multiple of the running median is
        re-run once.
    """

    def __init__(
        self,
        node: KNLNode,
        mode: UsageMode,
        chunker: Chunker,
        kernel: Kernel,
        pools: PoolSet | None = None,
        params: ModelParams | None = None,
        injector: FaultInjector | None = None,
        max_chunk_retries: int = 2,
        straggler_factor: float = 4.0,
    ) -> None:
        validate_node_mode(node, mode)
        if max_chunk_retries < 0:
            raise ConfigError("max_chunk_retries must be non-negative")
        if straggler_factor <= 1.0:
            raise ConfigError("straggler_factor must exceed 1")
        self.node = node
        self.mode = mode
        self.chunker = chunker
        self.kernel = kernel
        self.params = params or ModelParams()
        self.injector = injector
        self.counters: FaultCounters = (
            injector.counters if injector is not None else FaultCounters()
        )
        self.max_chunk_retries = max_chunk_retries
        self.straggler_factor = straggler_factor
        self.pools = pools or self._default_pools()

    def _default_pools(self) -> PoolSet:
        if self.mode in (UsageMode.FLAT, UsageMode.HYBRID):
            copy = min(
                _DEFAULT_COPY_THREADS, max(1, self.node.total_threads // 8)
            )
            return PoolSet.split(
                self.node,
                compute=self.node.total_threads - 2 * copy,
                copy_in=copy,
            )
        return PoolSet.compute_only(self.node)

    # ---- plan construction ----------------------------------------------

    def _chunk_plan(self, chunk: Chunk, mode: UsageMode) -> Plan:
        """Unbuffered per-chunk sub-plan (copy-in / compute / copy-out)."""
        nbytes = float(chunk.nbytes)
        plan = Plan(name=f"{self.kernel.name}/chunk{chunk.index}")
        explicit = mode in (UsageMode.FLAT, UsageMode.HYBRID)
        copy_res = {"ddr": 1.0, "mcdram": 1.0}
        if explicit:
            threads = self.pools.copy_in.size or self.pools.compute.size
            plan.add(
                Phase(
                    f"chunk{chunk.index}/in",
                    [Flow("copy-in", threads, self.params.s_copy, copy_res, nbytes)],
                )
            )
        multipliers = compute_multipliers(
            self.node,
            mode,
            working_set=nbytes,
            passes=self.kernel.passes(nbytes),
            write_fraction=self.kernel.write_fraction,
            cold=True,
        )
        plan.add(
            Phase(
                f"chunk{chunk.index}/compute",
                [
                    Flow(
                        "compute",
                        self.pools.compute.size,
                        self.params.s_comp,
                        multipliers,
                        self.kernel.logical_bytes(nbytes),
                    )
                ],
            )
        )
        if explicit:
            threads = self.pools.copy_out.size or self.pools.compute.size
            plan.add(
                Phase(
                    f"chunk{chunk.index}/out",
                    [Flow("copy-out", threads, self.params.s_copy, copy_res, nbytes)],
                )
            )
        return plan

    # ---- degradation plumbing -------------------------------------------

    def _mcdram_unusable(self, engine: Engine) -> bool:
        """Whether degraded MCDRAM no longer beats DDR for this run."""
        mc = engine.resources.get("mcdram")
        dd = engine.resources.get("ddr")
        return mc is not None and dd is not None and mc.capacity <= dd.capacity

    def _degrade_to_ddr(self, mode: UsageMode, index: int, log: list[str], why: str) -> UsageMode:
        if mode is UsageMode.DDR:
            return mode
        self.counters.mode_degradations += 1
        tel = _tm.current()
        if tel.enabled:
            tel.metrics.counter(
                _tn.RESILIENCE_MODE_DEGRADATIONS_TOTAL
            ).inc()
            tel.events.emit(
                _tn.EVENT_MODE_DEGRADE,
                from_mode=mode.value,
                to_mode=UsageMode.DDR.value,
                chunk=index,
                reason=why,
            )
        log.append(f"chunk {index}: degraded {mode.value} -> ddr ({why})")
        warnings.warn(
            f"MCDRAM unusable ({why}); degrading {mode.value!r} plan to the "
            "DDR path from chunk "
            f"{index} onward",
            DegradedModeWarning,
            stacklevel=3,
        )
        return UsageMode.DDR

    def _apply_recorded_events(
        self, heap: Heap, seen: int, log: list[str]
    ) -> int:
        """React to capacity-/worker-loss events the engine recorded."""
        if self.injector is None:
            return seen
        events = self.injector.events
        for ev in events[seen:]:
            if ev.kind is FaultKind.CAPACITY_LOSS and ev.target:
                region = heap.regions.get(ev.target)
                if region is not None:
                    lost = heap.shrink_device(
                        ev.target, int(ev.severity * region.size)
                    )
                    log.append(
                        f"{ev.target}: capacity loss surrendered {lost} bytes"
                    )
                self.node.apply_fault(ev)
            elif ev.kind is FaultKind.WORKER_LOSS:
                owned = (
                    self.pools.compute.threads
                    + self.pools.copy_in.threads
                    + self.pools.copy_out.threads
                )
                k = int(round(ev.severity * len(owned)))
                if k > 0:
                    # Deterministic victims: the highest-numbered ids.
                    victims = sorted(owned)[-k:]
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore", DegradedModeWarning)
                        self.pools = self.pools.resplit_after_loss(victims)
                    self.counters.worker_losses += 1
                    log.append(
                        f"worker loss: {k} thread(s) dropped; pools re-split "
                        f"to compute={self.pools.compute.size}, "
                        f"copy={self.pools.copy_threads}"
                    )
        return len(events)

    def _check_chunk_with_retries(self, index: int) -> int:
        """Consume injected chunk faults; returns attempts used."""
        attempts = 1
        while True:
            try:
                if self.injector is not None:
                    self.injector.check_chunk(index)
                return attempts
            except TransientFaultError as exc:
                if attempts > self.max_chunk_retries:
                    raise RetryExhaustedError(
                        f"chunk {index} failed after {attempts} attempts",
                        attempts=attempts,
                    ) from exc
                self.counters.chunk_retries += 1
                attempts += 1
                tel = _tm.current()
                if tel.enabled:
                    tel.metrics.counter(
                        _tn.RESILIENCE_CHUNK_RETRIES_TOTAL
                    ).inc()
                    tel.events.emit(
                        _tn.EVENT_CHUNK_RETRY, chunk=index, attempt=attempts
                    )

    # ---- execution ------------------------------------------------------

    def run(self, heap: Heap | None = None) -> ResilienceReport:
        """Execute all chunks with fault recovery; returns the report."""
        engine = Engine(
            self.node.resources(), record_events=False, injector=self.injector
        )
        own_heap = heap or Heap(self.node, injector=self.injector)
        mode = self.mode
        degraded_at: int | None = None
        log: list[str] = []
        outcomes: list[ChunkOutcome] = []
        traffic: dict[str, float] = {}
        times: list[float] = []
        clock = 0.0
        events_seen = len(self.injector.events) if self.injector else 0

        for chunk in self.chunker.chunks():
            if mode is not UsageMode.DDR and self._mcdram_unusable(engine):
                mode = self._degrade_to_ddr(
                    mode, chunk.index, log, "bandwidth below DDR"
                )
                degraded_at = degraded_at or chunk.index
            chunk_mode = mode
            alloc = None
            if mode in (UsageMode.FLAT, UsageMode.HYBRID):
                try:
                    alloc = own_heap.allocate(chunk.nbytes, MEMKIND_HBW)
                    if "ddr" in alloc.devices:
                        # Injected allocation fault: this chunk's buffer
                        # lives in DDR, so it runs the DDR path.
                        chunk_mode = UsageMode.DDR
                except (AllocationError, CapacityError):
                    mode = self._degrade_to_ddr(
                        mode, chunk.index, log, "buffer allocation failed"
                    )
                    degraded_at = degraded_at or chunk.index
                    chunk_mode = mode
            try:
                attempts = self._check_chunk_with_retries(chunk.index)
                subplan = self._chunk_plan(chunk, chunk_mode)
                res = engine.run(subplan)
                engine.phase_offset += subplan.num_phases
                elapsed = res.elapsed
                straggler = False
                if len(times) >= 2:
                    typical = statistics.median(times)
                    if typical > 0 and elapsed > self.straggler_factor * typical:
                        # Speculative re-execution: run it again, keep
                        # the better of the two attempts.
                        straggler = True
                        self.counters.stragglers += 1
                        tel = _tm.current()
                        if tel.enabled:
                            tel.metrics.counter(
                                _tn.RESILIENCE_STRAGGLERS_TOTAL
                            ).inc()
                            tel.events.emit(
                                _tn.EVENT_CHUNK_STRAGGLER,
                                chunk=chunk.index,
                                seconds=elapsed,
                                median_seconds=typical,
                            )
                        retry = engine.run(subplan)
                        engine.phase_offset += subplan.num_phases
                        attempts += 1
                        if retry.elapsed < elapsed:
                            res, elapsed = retry, retry.elapsed
                        log.append(
                            f"chunk {chunk.index}: straggler "
                            f"({elapsed:.3g}s vs median {typical:.3g}s), re-run"
                        )
                for name, moved in res.traffic.items():
                    traffic[name] = traffic.get(name, 0.0) + moved
                log.extend(res.faults)
                times.append(elapsed)
                clock += elapsed
                device = "ddr" if chunk_mode is UsageMode.DDR else "mcdram"
                tel = _tm.current()
                if tel.enabled:
                    tel.metrics.counter(
                        _tn.RESILIENCE_CHUNKS_TOTAL
                    ).inc(device=device)
                outcomes.append(
                    ChunkOutcome(
                        index=chunk.index,
                        elapsed=elapsed,
                        attempts=attempts,
                        device=device,
                        straggler=straggler,
                    )
                )
            finally:
                if alloc is not None:
                    own_heap.free(alloc)
            events_seen = self._apply_recorded_events(own_heap, events_seen, log)

        return ResilienceReport(
            elapsed=clock,
            traffic=traffic,
            chunks=outcomes,
            counters=self.counters,
            mode=mode,
            degraded_mode=mode is not self.mode,
            degraded_at_chunk=degraded_at,
            fault_log=log,
        )

    def run_functional(self, array, heap: Heap | None = None) -> list:
        """Apply the kernel to a real array with the same recovery paths.

        Each chunk's buffer is allocated through the fault-aware heap
        (recording DDR fallbacks) and transient chunk faults are
        retried, so functional outputs stay correct under any fault
        plan that is not permanently fatal. Returns per-chunk outputs.
        """
        own_heap = heap or Heap(self.node, injector=self.injector)
        explicit = self.mode in (UsageMode.FLAT, UsageMode.HYBRID)
        outs = []
        for chunk, view in zip(
            self.chunker.chunks(), self.chunker.split_array(array)
        ):
            alloc = None
            if explicit:
                try:
                    alloc = own_heap.allocate(chunk.nbytes, MEMKIND_HBW)
                except (AllocationError, CapacityError):
                    alloc = None  # DDR-resident chunk; compute anyway.
            try:
                self._check_chunk_with_retries(chunk.index)
                outs.append(self.kernel.apply(view))
            finally:
                if alloc is not None:
                    own_heap.free(alloc)
        return outs

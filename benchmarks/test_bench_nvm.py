"""Benchmarks of plan evaluation for the NVM three-level pipeline.

The ``single`` strategy emits the triple-buffered steady state — one
``static_rates`` step per inner chunk, identical but for names — as
one repeated block. ``run_batch`` evaluates a plan with a repeated
block as one row on ``run_rows`` (a batch this small stays off the
NumPy tensor), so each phase is solved once per *block* rather than
once per *chunk*. These benchmarks time an identical plan through
``run_batch`` and the ``Engine.run`` reference loop and gate the
speedup the fast path exists to provide.
"""

from __future__ import annotations

import time

from repro.core.kernel import StreamKernel
from repro.core.multilevel import ThreeLevelConfig, ThreeLevelPipeline
from repro.simknl.batch import run_batch
from repro.simknl.engine import Engine
from repro.units import GiB, MiB

# ~1600 inner chunks -> ~1602 phases, one large steady-state block.
DATA_BYTES = 100 * GiB
INNER_CHUNK = 64 * MiB


def _pipeline(flat_node) -> ThreeLevelPipeline:
    return ThreeLevelPipeline(
        flat_node,
        StreamKernel(passes=2),
        ThreeLevelConfig(
            data_bytes=DATA_BYTES, inner_chunk_bytes=INNER_CHUNK
        ),
    )


def _engine(pipe: ThreeLevelPipeline) -> Engine:
    return Engine([*pipe.node.resources(), pipe.nvm.resource()])


def test_bench_nvm_batched_plan(benchmark, flat_node):
    pipe = _pipeline(flat_node)
    plan = pipe.build_plan("single")
    eng = _engine(pipe)
    run_batch(eng, [plan])  # warm: memoize the rate solves
    (result,) = benchmark(run_batch, eng, [plan])
    assert result.elapsed > 0


def test_bench_nvm_reference_plan(benchmark, flat_node):
    pipe = _pipeline(flat_node)
    plan = pipe.build_plan("single")
    eng = _engine(pipe)
    eng.run(plan)  # warm the memoized rate solves
    result = benchmark(eng.run, plan)
    assert result.elapsed > 0


def test_batched_at_least_5x_faster(flat_node):
    """The acceptance bar: fast-path evaluation of a chunked NVM plan
    is at least 5x faster than the per-phase reference loop."""
    pipe = _pipeline(flat_node)
    plan = pipe.build_plan("single")
    eng = _engine(pipe)
    (base,) = run_batch(eng, [plan])  # warm both paths
    ref = eng.run(plan)
    assert ref.elapsed == base.elapsed  # same simulated answer

    def best_of(fn, rounds=5):
        times = []
        for _ in range(rounds):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return min(times)

    fast = best_of(lambda: run_batch(eng, [plan]))
    slow = best_of(lambda: eng.run(plan))
    assert slow >= 5.0 * fast, (
        f"reference {slow * 1e3:.2f}ms vs batched {fast * 1e3:.2f}ms "
        f"({slow / fast:.1f}x)"
    )

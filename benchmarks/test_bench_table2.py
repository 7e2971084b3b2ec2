"""Benchmark: regenerate Table 2 (STREAM-measured model parameters)."""

from __future__ import annotations

from repro.experiments.table2 import run_table2


def test_bench_table2(benchmark):
    result = benchmark.pedantic(run_table2, rounds=5, iterations=1)
    cells = {r["parameter"]: r for r in result.rows}
    for name in ("B_copy", "DDR_max", "MCDRAM_max", "S_copy", "S_comp"):
        row = cells[name]
        assert abs(row["measured_gb"] - row["paper_gb"]) / row["paper_gb"] < 0.05


def test_bench_stream_triad(benchmark, flat_node):
    """Micro: one STREAM-triad measurement on the simulated node."""
    from repro.algorithms.stream import stream_triad_plan

    plan = stream_triad_plan(flat_node, "mcdram")
    result = benchmark(flat_node.run, plan)
    bw = plan.total_bytes / result.elapsed
    assert abs(bw - 400e9) / 400e9 < 0.01

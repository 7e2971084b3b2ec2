"""End-to-end integration tests across subsystems.

Each scenario exercises several packages together the way a downstream
user would: heap + pipeline + trace + energy, functional + timed twins
sharing chunk geometry, CLI over every driver, and public API surface.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

import repro
from repro.core import BufferedPipeline, Chunker, FunctionKernel, StreamKernel
from repro.core.modes import UsageMode
from repro.core.planner import plan_chunk_bytes, plan_pools
from repro.memkind import MEMKIND_HBW, Heap
from repro.model.params import ModelParams
from repro.simknl.energy import EnergyModel
from repro.simknl.node import KNLNode, KNLNodeConfig, MemoryMode
from repro.simknl.trace import phase_utilizations, render_gantt, to_chrome_trace
from repro.units import GB, GiB


class TestPublicApi:
    def test_version(self):
        assert repro.__version__

    def test_top_level_exports(self):
        node = repro.KNLNode(repro.KNLNodeConfig(mode=repro.MemoryMode.FLAT))
        assert node.addressable_mcdram > 0
        assert repro.ModelParams().s_copy == pytest.approx(4.8 * GB)

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None


class TestHeapPipelineTraceEnergy:
    """One kernel through planner, heap, pipeline, trace, and energy."""

    @pytest.fixture(scope="class")
    def artifacts(self):
        node = KNLNode(KNLNodeConfig(mode=MemoryMode.FLAT))
        heap = Heap(node)
        data = int(12 * GiB)
        kernel = StreamKernel(passes=4, name="integration")
        params = ModelParams().with_data_size(data)
        # A competing long-lived allocation shrinks the heap, so the
        # chunk is sized below the planner's 1/3 maximum (the paper's
        # "other data should remain in MCDRAM" scenario).
        resident = heap.allocate(int(1 * GiB), MEMKIND_HBW)
        chunk = min(plan_chunk_bytes(node, UsageMode.FLAT, data), int(4 * GiB))
        pools = plan_pools(node, UsageMode.FLAT, params, passes=4)
        pipe = BufferedPipeline(
            node, UsageMode.FLAT, pools, Chunker(data, chunk), kernel, params
        )
        result = pipe.run(heap)
        heap.free(resident)
        return node, heap, pipe, result

    def test_heap_fully_released(self, artifacts):
        _, heap, _, _ = artifacts
        assert heap.usage()["mcdram"] == 0

    def test_utilization_consistent(self, artifacts):
        node, _, pipe, result = artifacts
        utils = phase_utilizations(
            result.plan,
            result.run,
            {"ddr": node.ddr.bandwidth, "mcdram": node.mcdram.bandwidth},
        )
        assert len(utils) == len(result.plan.phases)
        total = sum(u.duration for u in utils)
        assert total == pytest.approx(result.elapsed)
        assert all(
            0 <= v <= 1.0 for u in utils for v in u.device_utilization.values()
        )

    def test_gantt_and_chrome_trace(self, artifacts):
        _, _, _, result = artifacts
        gantt = render_gantt(result.plan, result.run)
        assert gantt.count("\n") == len(result.plan.phases)
        assert "traceEvents" in to_chrome_trace(result.plan, result.run)

    def test_energy_report(self, artifacts):
        _, _, _, result = artifacts
        rep = EnergyModel().report(result.run)
        assert rep.total_joules > 0
        assert rep.dynamic_joules["mcdram"] > rep.dynamic_joules["ddr"]


class TestFunctionalTimedTwins:
    def test_same_geometry_both_paths(self):
        """The chunk boundaries charging simulated time are the same
        boundaries slicing the real array."""
        node = KNLNode(KNLNodeConfig(mode=MemoryMode.CACHE))
        n = 4096
        arr = np.random.default_rng(0).integers(0, 99, n, dtype=np.int64)
        chunker = Chunker.from_elements(n, 1000)
        kernel = FunctionKernel(np.sort, name="sort-chunk")
        from repro.threads.pool import PoolSet

        pipe = BufferedPipeline(
            node,
            UsageMode.IMPLICIT,
            PoolSet.compute_only(node),
            chunker,
            kernel,
        )
        outputs = pipe.run_functional(arr)
        assert len(outputs) == chunker.num_chunks == 5
        for out in outputs:
            assert np.all(np.diff(out) >= 0)
        # Timed twin runs the same chunk count.
        res = pipe.run()
        assert res.num_chunks == len(outputs)

    def test_merge_bench_functional_kernel_through_pipeline(self):
        from repro.algorithms.merge_bench import merge_bench_kernel

        node = KNLNode(KNLNodeConfig(mode=MemoryMode.CACHE))
        arr = np.random.default_rng(1).integers(0, 999, 2048, dtype=np.int64)
        chunker = Chunker.from_elements(2048, 512)
        from repro.threads.pool import PoolSet

        pipe = BufferedPipeline(
            node,
            UsageMode.IMPLICIT,
            PoolSet.compute_only(node),
            chunker,
            merge_bench_kernel(3),
        )
        outs = pipe.run_functional(arr)
        for out in outs:
            assert np.all(np.diff(out) >= 0)


class TestCliAllDrivers:
    def test_every_experiment_runs_via_cli(self, capsys):
        from repro.cli import main
        from repro.experiments import ALL_EXPERIMENTS
        from repro.errors import DegradedModeWarning

        # A clean run of every artifact degrades nothing: any
        # DegradedModeWarning is noise on `repro-knl all` and fails.
        with warnings.catch_warnings():
            warnings.simplefilter("error", DegradedModeWarning)
            for name in ALL_EXPERIMENTS:
                assert main([name]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "design-space" in out


class TestDeterminism:
    def test_experiments_are_deterministic(self):
        from repro.experiments.table1 import run_table1

        a = run_table1(sizes=(2_000_000_000,), orders=("random",))
        b = run_table1(sizes=(2_000_000_000,), orders=("random",))
        assert [r["simulated_s"] for r in a.rows] == [
            r["simulated_s"] for r in b.rows
        ]

    def test_plan_rerun_identical(self):
        from repro.experiments.runner import sort_variant_run

        r1 = sort_variant_run("MLM-sort", 2_000_000_000, "random")
        r2 = sort_variant_run("MLM-sort", 2_000_000_000, "random")
        assert r1.elapsed == r2.elapsed
        assert r1.traffic == r2.traffic

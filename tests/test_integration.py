"""End-to-end integration tests across subsystems.

Each scenario exercises several packages together the way a downstream
user would: thread split + pipeline + energy, CLI over every driver, and
public API surface.
"""

from __future__ import annotations

import pkgutil
import sys
import warnings

import pytest

import repro
from repro.core import BufferedPipeline, Chunker, StreamKernel
from repro.core.modes import UsageMode
from repro.model.optimizer import optimal_copy_threads
from repro.model.params import ModelParams
from repro.simknl.energy import EnergyModel
from repro.simknl.node import KNLNode, KNLNodeConfig, MemoryMode
from repro.threads.pool import PoolSet
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

    def test_algorithms_submodules_not_shadowed(self):
        """``import repro.algorithms.<name> as m`` binds the module: the
        package re-exports no function under a submodule's name."""
        import repro.algorithms as algorithms

        for info in pkgutil.iter_modules(algorithms.__path__):
            attr = getattr(algorithms, info.name, None)
            if attr is not None:
                assert attr is sys.modules[f"repro.algorithms.{info.name}"]


class TestHeapPipelineTraceEnergy:
    """One kernel through the model's thread split, the pipeline's
    MCDRAM buffer check, the pipeline and energy."""

    @pytest.fixture(scope="class")
    def artifacts(self):
        node = KNLNode(KNLNodeConfig(mode=MemoryMode.FLAT))
        data = int(12 * GiB)
        kernel = StreamKernel(passes=4, name="integration")
        params = ModelParams().with_data_size(data)
        # The chunk is sized below the 1/3-of-MCDRAM triple-buffer
        # maximum, leaving room for other data in MCDRAM.
        chunk = int(4 * GiB)
        assert chunk < node.addressable_mcdram // 3
        best = optimal_copy_threads(
            params, total_threads=node.total_threads, passes=4
        )
        pools = PoolSet.split(
            node,
            compute=node.total_threads - 2 * best.p_in,
            copy_in=best.p_in,
        )
        pipe = BufferedPipeline(
            node, UsageMode.FLAT, pools, Chunker(data, chunk), kernel, params
        )
        result = pipe.run()
        assert result.buffers_bytes == 3 * chunk
        return node, pipe, result

    def test_energy_report(self, artifacts):
        _, _, result = artifacts
        rep = EnergyModel().report(result.run)
        assert rep.total_joules > 0
        assert rep.dynamic_joules["mcdram"] > rep.dynamic_joules["ddr"]


class TestCliAllDrivers:
    def test_every_experiment_runs_via_cli(self, capsys):
        from repro.cli import main
        from repro.experiments import ALL_EXPERIMENTS

        # A clean run of every artifact warns about nothing: any
        # warning is noise on `repro-knl all` and fails.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
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
        from repro.experiments.runner import _sort_variant_plan

        runs = []
        for _ in range(2):
            node, plan = _sort_variant_plan("MLM-sort", 2_000_000_000, "random")
            runs.append(node.run(plan))
        r1, r2 = runs
        assert r1.elapsed == r2.elapsed
        assert r1.traffic == r2.traffic

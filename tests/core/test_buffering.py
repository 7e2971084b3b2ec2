"""Tests for the triple-buffered pipeline."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.buffering import BufferedPipeline
from repro.core.chunking import Chunker
from repro.core.kernel import StreamKernel
from repro.core.modes import UsageMode
from repro.errors import CapacityError, ConfigError
from repro.model.analytic import compute_time, copy_time, predict
from repro.model.params import ModelParams
from repro.simknl.node import KNLNode, KNLNodeConfig, MemoryMode
from repro.threads.pool import PoolSet
from repro.units import GB, GiB, MiB


def flat_node():
    return KNLNode(KNLNodeConfig(mode=MemoryMode.FLAT))


def cache_node():
    return KNLNode(KNLNodeConfig(mode=MemoryMode.CACHE))


def make_pipeline(node, mode, passes=8, p_in=5, chunk=GiB, total=None, **kw):
    total = total or (int(14.9 * GB) // 8 * 8)
    chunker = Chunker(total_bytes=total, chunk_bytes=chunk)
    kernel = StreamKernel(passes=passes, name="merge")
    if mode in (UsageMode.FLAT, UsageMode.HYBRID):
        pools = PoolSet.split(node, compute=256 - 2 * p_in, copy_in=p_in)
    else:
        pools = PoolSet.compute_only(node, threads=256)
    return BufferedPipeline(
        node, mode, pools, chunker, kernel, ModelParams(), **kw
    )


class TestPlanStructure:
    def test_buffered_has_n_plus_2_steps(self):
        pipe = make_pipeline(flat_node(), UsageMode.FLAT, total=8 * GiB, chunk=GiB)
        plan = pipe.build_plan()
        assert len(plan.phases) == 8 + 2

    def test_buffered_steady_state_has_three_flows(self):
        pipe = make_pipeline(flat_node(), UsageMode.FLAT, total=8 * GiB, chunk=GiB)
        plan = pipe.build_plan()
        assert len(plan.phases[0].flows) == 1  # fill: copy-in only
        assert len(plan.phases[1].flows) == 2  # copy-in + compute
        assert len(plan.phases[4].flows) == 3  # steady state
        assert len(plan.phases[-1].flows) == 1  # drain: copy-out only

    def test_unbuffered_sequential_phases(self):
        pipe = make_pipeline(
            flat_node(), UsageMode.FLAT, total=4 * GiB, chunk=GiB, buffered=False
        )
        plan = pipe.build_plan()
        assert len(plan.phases) == 4 * 3
        assert all(len(p.flows) == 1 for p in plan.phases)

    def test_implicit_one_phase_per_chunk(self):
        pipe = make_pipeline(cache_node(), UsageMode.IMPLICIT, total=4 * GiB, chunk=GiB)
        plan = pipe.build_plan()
        assert len(plan.phases) == 4
        assert all(len(p.flows) == 1 for p in plan.phases)

    @pytest.mark.parametrize("n", [10, 100, 1000])
    def test_steady_state_is_one_repeated_block(self, n):
        """The plan holds the steady state once with its repeat count:
        its entry count does not grow with n, while the expanded view
        keeps one named step per chunk plus fill/drain."""
        node = flat_node()
        pipe = make_pipeline(node, UsageMode.FLAT, total=n * 64 * MiB, chunk=64 * MiB)
        plan = pipe.build_plan()
        assert len(plan.blocks) == 5
        assert [b.repeat for b in plan.blocks] == [1, 1, n - 2, 1, 1]
        assert plan.num_phases == n + 2
        assert [p.name for p in plan.phases] == [f"step{s}" for s in range(n + 2)]
        assert [f.name for f in plan.phases[5].flows] == [
            "copy-in[5]",
            "compute[4]",
            "copy-out[3]",
        ]
        result = node.run(plan)
        assert len(result.phase_times) == n + 2

    def test_mode_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            make_pipeline(cache_node(), UsageMode.FLAT)


class TestBuffers:
    def test_flat_buffered_needs_three(self):
        pipe = make_pipeline(flat_node(), UsageMode.FLAT)
        assert pipe.required_buffers() == 3

    def test_flat_unbuffered_needs_one(self):
        pipe = make_pipeline(flat_node(), UsageMode.FLAT, buffered=False)
        assert pipe.required_buffers() == 1

    def test_implicit_needs_none(self):
        pipe = make_pipeline(cache_node(), UsageMode.IMPLICIT)
        assert pipe.required_buffers() == 0

    def test_chunk_too_large_for_three_buffers(self):
        """The paper's constraint: 2/3 of MCDRAM goes to copy buffers."""
        node = flat_node()
        pipe = make_pipeline(node, UsageMode.FLAT, chunk=6 * GiB, total=24 * GiB)
        with pytest.raises(CapacityError):
            pipe.run()

    def test_unbuffered_allows_larger_chunks(self):
        node = flat_node()
        pipe = make_pipeline(
            node, UsageMode.FLAT, chunk=15 * GiB, total=30 * GiB, buffered=False
        )
        res = pipe.run()
        assert res.buffers_bytes == 15 * GiB

    @pytest.mark.parametrize("buffered", [True, False])
    @pytest.mark.parametrize(
        "mode, fraction, addressable",
        [
            (MemoryMode.FLAT, 0.5, 12 * GiB),
            (MemoryMode.HYBRID, 0.25, 9 * GiB),
            (MemoryMode.HYBRID, 0.5, 6 * GiB),
        ],
    )
    def test_buffers_fill_addressable_mcdram_exactly(
        self, mode, fraction, addressable, buffered
    ):
        """Buffers that fill addressable MCDRAM to the byte fit; one
        byte more per buffer raises, from prepare() and run() alike."""
        node = KNLNode(
            KNLNodeConfig(
                mode=mode,
                mcdram_capacity=12 * GiB,
                hybrid_cache_fraction=fraction,
            )
        )
        assert node.addressable_mcdram == addressable
        usage = UsageMode(mode.value)
        count = 3 if buffered else 1
        chunk = addressable // count
        assert count * chunk == addressable

        def pipeline(chunk_bytes):
            pools = PoolSet.split(node, compute=246, copy_in=5)
            return BufferedPipeline(
                node,
                usage,
                pools,
                Chunker(4 * chunk_bytes, chunk_bytes, element_size=1),
                StreamKernel(passes=2),
                buffered=buffered,
            )

        fits = pipeline(chunk)
        assert fits.required_buffers() == count
        fits.prepare()
        assert fits.run().buffers_bytes == addressable
        over = pipeline(chunk + 1)
        for call in (over.prepare, over.run):
            with pytest.raises(CapacityError, match="do not fit"):
                call()


class TestTimingAgainstModel:
    def test_matches_model_within_fill_drain(self):
        """Simulated time is within ~20% of Eq. 1 for ~15 chunks."""
        pipe = make_pipeline(flat_node(), UsageMode.FLAT, passes=8, p_in=5)
        res = pipe.run()
        model = predict(ModelParams(), 246, 5, 5, passes=8).t_total
        assert res.elapsed == pytest.approx(model, rel=0.20)
        assert res.elapsed >= model  # fill/drain only adds time

    def test_copy_bound_configuration(self):
        """With one copy thread the pipeline is copy-dominated."""
        pipe = make_pipeline(flat_node(), UsageMode.FLAT, passes=1, p_in=1)
        res = pipe.run()
        model = predict(ModelParams(), 254, 1, 1, passes=1).t_total
        assert res.elapsed == pytest.approx(model, rel=0.15)

    @settings(max_examples=150, deadline=None)
    @given(
        p=st.integers(min_value=1, max_value=127),
        passes=st.one_of(
            st.just(0.0),
            st.sampled_from([0.25, 0.5, 1.0, 2.0, 8.0, 64.0, 128.0]),
            st.floats(min_value=0.25, max_value=128.0),
        ),
        chunk=st.integers(min_value=1, max_value=512 * 1024).map(
            lambda n: n * 8 * 1024
        ),
        full_chunks=st.integers(min_value=4, max_value=14),
        tail=st.floats(min_value=0.0, max_value=0.99),
    )
    def test_steady_step_is_eq1(self, p, passes, chunk, full_chunks, tail):
        """Every steady step of a flat-mode pipeline (symmetric pools
        of ``p`` copy threads, 256 threads in all) takes Eq. 1's
        ``t_total`` for one chunk, to within a few ulp — over the
        whole symmetric-pool range, with or without a ragged final
        chunk. Fill and drain steps are the next property's."""
        total = full_chunks * chunk + int(tail * chunk) // 8 * 8
        node = flat_node()
        pipe = BufferedPipeline(
            node,
            UsageMode.FLAT,
            PoolSet.split(node, compute=256 - 2 * p, copy_in=p),
            Chunker(total, chunk),
            StreamKernel(passes=passes),
            ModelParams(),
        )
        # Steps 2 .. full_chunks - 1 copy in, compute and copy out
        # three full chunks.
        steady = pipe.run().run.phase_times[2:full_chunks]
        eq1 = predict(
            ModelParams().with_data_size(chunk), 256 - 2 * p, p, p, passes
        ).t_total
        assert len(steady) == full_chunks - 2
        for t in steady:
            assert abs(t - eq1) <= 4 * math.ulp(eq1)

    @settings(max_examples=150, deadline=None)
    @given(
        p=st.integers(min_value=1, max_value=127),
        passes=st.one_of(
            st.just(0.0),
            st.sampled_from([0.25, 0.5, 1.0, 2.0, 8.0, 64.0, 128.0]),
            st.floats(min_value=0.25, max_value=128.0),
        ),
        chunk=st.integers(min_value=1, max_value=512 * 1024).map(
            lambda n: n * 8 * 1024
        ),
        n=st.integers(min_value=4, max_value=14),
    )
    def test_fill_and_drain_steps_are_closed_forms(self, p, passes, chunk, n):
        """Fill and drain of a flat-mode pipeline of ``n`` full chunks
        take Eqs. 2 and 4 with the pools that are live in each step,
        to within a few ulp, so the whole run is fill + Eq. 1 x (n - 2)
        + drain. ``copy_time`` of half a chunk is one chunk moved in
        one direction. Steps touching a ragged final chunk are not
        covered."""
        pc = 256 - 2 * p
        node = flat_node()
        res = BufferedPipeline(
            node,
            UsageMode.FLAT,
            PoolSet.split(node, compute=pc, copy_in=p),
            Chunker(n * chunk, chunk),
            StreamKernel(passes=passes),
            ModelParams(),
        ).run()
        half = ModelParams().with_data_size(chunk / 2)
        full = ModelParams().with_data_size(chunk)
        copy_in = copy_time(half, p, 0)
        copy_out = copy_time(half, 0, p)
        eq1 = predict(full, pc, p, p, passes).t_total
        closed = [
            copy_in,
            max(copy_in, compute_time(full, pc, p, 0, passes)),
            *[eq1] * (n - 2),
            max(compute_time(full, pc, 0, p, passes), copy_out),
            copy_out,
        ]
        times = res.run.phase_times
        assert len(times) == n + 2
        for step in (0, 1, n, n + 1):
            t, want = times[step], closed[step]
            assert abs(t - want) <= 4 * math.ulp(want), step
        total = 0.0
        for t in closed:
            total += t
        assert abs(res.elapsed - total) <= (n + 2) * 4 * math.ulp(total)

    def test_more_passes_takes_longer(self):
        t = [
            make_pipeline(flat_node(), UsageMode.FLAT, passes=p).run().elapsed
            for p in (1, 8, 32)
        ]
        assert t[0] < t[1] < t[2]

    def test_traffic_accounting_flat(self):
        """Copies move the data set through DDR and MCDRAM once each way."""
        total = 8 * GiB
        pipe = make_pipeline(
            flat_node(), UsageMode.FLAT, passes=4, total=total, chunk=GiB
        )
        res = pipe.run()
        # copy-in + copy-out = 2 * total on each device; compute adds
        # 2 * passes * total on MCDRAM only.
        assert res.run.traffic["ddr"] == pytest.approx(2 * total, rel=1e-6)
        assert res.run.traffic["mcdram"] == pytest.approx(
            2 * total + 2 * 4 * total, rel=1e-6
        )

    def test_implicit_saves_ddr_traffic(self):
        """Implicit mode re-reads each chunk from cache, not DDR."""
        total = 8 * GiB
        flat = make_pipeline(
            flat_node(), UsageMode.FLAT, passes=8, total=total, chunk=GiB
        ).run()
        imp = make_pipeline(
            cache_node(), UsageMode.IMPLICIT, passes=8, total=total, chunk=GiB
        ).run()
        assert imp.run.traffic["ddr"] < flat.run.traffic["ddr"]

    def test_implicit_thrashing_chunk_slower_per_byte(self):
        """Chunks beyond cache capacity drive implicit mode to DDR speed."""
        small = make_pipeline(
            cache_node(), UsageMode.IMPLICIT, passes=8, total=8 * GiB, chunk=GiB
        ).run()
        big = make_pipeline(
            cache_node(),
            UsageMode.IMPLICIT,
            passes=8,
            total=64 * GiB,
            chunk=32 * GiB,
        ).run()
        assert big.elapsed / 8 > small.elapsed  # 8x data, >8x time

    def test_ddr_mode_all_ddr(self):
        node = flat_node()
        pipe = make_pipeline(node, UsageMode.DDR, passes=2, total=4 * GiB)
        res = pipe.run()
        assert res.run.traffic["mcdram"] == 0.0
        assert res.run.traffic["ddr"] > 0


class TestHybrid:
    def test_hybrid_runs_with_smaller_chunks(self):
        node = KNLNode(
            KNLNodeConfig(mode=MemoryMode.HYBRID, hybrid_cache_fraction=0.5)
        )
        chunker = Chunker(total_bytes=8 * GiB, chunk_bytes=2 * GiB)
        pools = PoolSet.split(node, compute=246, copy_in=5)
        pipe = BufferedPipeline(
            node, UsageMode.HYBRID, pools, chunker, StreamKernel(passes=4)
        )
        res = pipe.run()
        assert res.elapsed > 0

    def test_hybrid_rejects_flat_sized_chunks(self):
        node = KNLNode(
            KNLNodeConfig(mode=MemoryMode.HYBRID, hybrid_cache_fraction=0.5)
        )
        chunker = Chunker(total_bytes=16 * GiB, chunk_bytes=4 * GiB)
        pools = PoolSet.split(node, compute=246, copy_in=5)
        pipe = BufferedPipeline(
            node, UsageMode.HYBRID, pools, chunker, StreamKernel(passes=4)
        )
        with pytest.raises(CapacityError):
            pipe.run()


class TestPipelineResult:
    def test_result_fields(self):
        pipe = make_pipeline(cache_node(), UsageMode.IMPLICIT, total=4 * GiB)
        res = pipe.run()
        assert res.mode is UsageMode.IMPLICIT
        assert res.num_chunks == 4
        assert res.buffers_bytes == 0
        assert res.traffic_gb("mcdram") > 0

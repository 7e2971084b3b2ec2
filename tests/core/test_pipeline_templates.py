"""Pipeline plan templates: ``BufferedPipeline.build_plan`` as a template
plus a bytes row.

The builder computes a cell's scalars — chunk sizes, the compute flow's
logical bytes and multipliers for a full and a ragged last chunk, and
which flows each block holds — keys a
:class:`~repro.simknl.engine.PlanTemplate` on them and returns a lazy
plan. These tests hold every usage mode's lazy plan, phase by phase,
to the eager builder it replaced (kept here as ``eager_plan``), the key
to everything the template reads, and figure8's sweep to one template
per copy-thread count. Bit-identity of the runs with the reference
loop is ``test_fast_path_oracle.py``'s job.
"""

from __future__ import annotations

import pytest

from repro.core.buffering import BufferedPipeline, pipeline_spans
from repro.core.chunking import Chunker
from repro.core.kernel import StreamKernel
from repro.core.modes import UsageMode, compute_multipliers
from repro.errors import PlanError
from repro.experiments.figure8 import (
    DEFAULT_COPY_THREADS,
    DEFAULT_REPEATS,
    _figure8_cell,
)
from repro.simknl import engine
from repro.simknl.batch import run_batch
from repro.simknl.engine import Engine, Phase, Plan
from repro.simknl.flows import Flow
from repro.simknl.node import KNLNode, KNLNodeConfig, MemoryMode
from repro.threads.pool import PoolSet
from repro.units import GiB, MiB


@pytest.fixture
def memo(monkeypatch):
    """A fresh, empty template memo for the test."""
    fresh: dict = {}
    monkeypatch.setattr(engine, "_TEMPLATE_MEMO", fresh)
    return fresh


def eager_plan(pipe: BufferedPipeline) -> Plan:
    """The pipeline's plan built phase by phase, as ``build_plan`` did
    before it emitted templates."""

    def copy(threads, nbytes, label):
        return Flow(
            name=label,
            threads=threads,
            per_thread_rate=pipe.params.s_copy,
            resources={"ddr": 1.0, "mcdram": 1.0},
            bytes_total=nbytes,
        )

    def compute(chunk_bytes, label):
        resources = compute_multipliers(
            pipe.node,
            pipe.mode,
            working_set=chunk_bytes,
            passes=pipe.kernel.passes(chunk_bytes),
            write_fraction=pipe.kernel.write_fraction,
            cold=True,
        )
        return Flow(
            name=label,
            threads=pipe.pools.compute,
            per_thread_rate=pipe.s_comp,
            resources=resources,
            bytes_total=pipe.kernel.logical_bytes(chunk_bytes),
        )

    chunker = pipe.chunker
    n = chunker.num_chunks
    size = chunker.nbytes
    plan = Plan(name=f"{pipe.kernel.name}/{pipe.mode.value}")
    explicit = pipe.mode in (UsageMode.FLAT, UsageMode.HYBRID)
    if explicit and pipe.buffered:

        def step(s):
            flows = []
            if s < n:
                flows.append(copy(pipe.pools.copy_in, size(s), f"copy-in[{s}]"))
            if 0 <= s - 1 < n:
                flows.append(compute(size(s - 1), f"compute[{s - 1}]"))
            if 0 <= s - 2 < n:
                flows.append(
                    copy(pipe.pools.copy_out, size(s - 2), f"copy-out[{s - 2}]")
                )
            return [Phase(f"step{s}", flows, static_rates=True)]

        steady = max(2, chunker.full_chunks)
        plan.add_block(step, 0, 1).add_block(step, 1, 2)
        plan.add_block(step, 2, steady)
        for s in range(steady, n + 2):
            plan.add_block(step, s, s + 1)
        return plan
    if explicit:

        def chunk(i):
            return [
                Phase(f"chunk{i}/in", [copy(pipe.pools.copy_in, size(i), "copy-in")]),
                Phase(f"chunk{i}/compute", [compute(size(i), "compute")]),
                Phase(
                    f"chunk{i}/out", [copy(pipe.pools.copy_out, size(i), "copy-out")]
                ),
            ]
    else:

        def chunk(i):
            return [Phase(f"chunk{i}", [compute(size(i), "compute")])]

    full = chunker.full_chunks
    return plan.add_block(chunk, 0, full).add_block(chunk, full, n)


#: (usage mode, BIOS mode, buffered) for every path of the builder.
KINDS = {
    "flat-buffered": (UsageMode.FLAT, MemoryMode.FLAT, True),
    "flat-unbuffered": (UsageMode.FLAT, MemoryMode.FLAT, False),
    "hybrid": (UsageMode.HYBRID, MemoryMode.HYBRID, True),
    "implicit": (UsageMode.IMPLICIT, MemoryMode.CACHE, True),
    "cache": (UsageMode.CACHE, MemoryMode.CACHE, True),
    "ddr": (UsageMode.DDR, MemoryMode.FLAT, True),
}

CHUNK = 256 * MiB


def pipeline(
    kind: str,
    chunks: int,
    ragged: int = 0,
    passes: float = 3.0,
    copy_threads: int = 8,
    chunk: int = CHUNK,
) -> BufferedPipeline:
    """``chunks`` chunks of ``chunk`` bytes; a nonzero ``ragged``
    shrinks the final one by that many elements."""
    mode, boot, buffered = KINDS[kind]
    node = KNLNode(KNLNodeConfig(mode=boot))
    if mode in (UsageMode.FLAT, UsageMode.HYBRID):
        pools = PoolSet.split(
            node, compute=256 - 2 * copy_threads, copy_in=copy_threads
        )
    else:
        pools = PoolSet.compute_only(node, threads=256)
    return BufferedPipeline(
        node,
        mode,
        pools,
        Chunker(chunks * chunk - 8 * ragged, chunk),
        StreamKernel(passes=passes),
        buffered=buffered,
    )


def phase_view(plan: Plan) -> list[tuple]:
    return [
        (
            ph.name,
            ph.static_rates,
            [
                (
                    f.name,
                    f.threads,
                    f.per_thread_rate,
                    list(f.resources.items()),
                    f.bytes_total,
                )
                for f in ph.flows
            ],
        )
        for ph in plan.phases
    ]


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("chunks", [1, 2, 3, 14])
@pytest.mark.parametrize("ragged", [0, 1000])
def test_lazy_plan_equals_eager_plan(memo, kind, chunks, ragged):
    pipe = pipeline(kind, chunks, ragged)
    lazy = pipe.build_plan()
    want = eager_plan(pipe)
    assert lazy.template is not None and lazy._blocks is None
    assert lazy.name == want.name
    assert list(lazy.repeats) == [b.repeat for b in want.blocks]
    assert lazy.num_phases == want.num_phases
    assert list(lazy.row) == list(want.row)
    assert lazy.structure() == want.structure()
    assert phase_view(lazy) == phase_view(want)


@pytest.mark.parametrize("kind", ["flat-buffered", "flat-unbuffered", "implicit"])
def test_zero_pass_kernel_keeps_its_dead_compute_flow(memo, kind):
    """A zero-pass kernel's compute flow moves no bytes: it stays in its
    phase, as in the eager plan, but takes no column of the row."""
    pipe = pipeline(kind, 3, 1000, passes=0)
    lazy = pipe.build_plan()
    want = eager_plan(pipe)
    assert phase_view(lazy) == phase_view(want)
    assert list(lazy.row) == list(want.row)
    assert lazy.structure() == want.structure()


def test_full_and_ragged_pipelines_hold_different_templates(memo):
    full = pipeline("flat-buffered", 14).build_plan()
    longer = pipeline("flat-buffered", 20).build_plan()
    ragged = pipeline("flat-buffered", 14, 1000).build_plan()
    assert full.template is longer.template
    assert ragged.template is not full.template
    assert len(memo) == 2


@pytest.mark.parametrize("kind", ["implicit", "cache"])
def test_cache_cells_with_different_multipliers_never_share(memo, kind):
    templates: dict[tuple, set[int]] = {}
    for gib in (1, 2, 8, 12, 16, 24):
        pipe = pipeline(kind, 2, chunk=gib * GiB)
        plan = pipe.build_plan()
        want = compute_multipliers(
            pipe.node, pipe.mode, gib * GiB, 3.0, cold=True
        )
        (flow,) = plan.phases[0].flows
        assert dict(flow.resources) == want
        templates.setdefault(tuple(want.items()), set()).add(id(plan.template))
    assert len(templates) > 1
    seen: set[int] = set()
    for ids in templates.values():
        assert not ids & seen
        seen |= ids


def test_pool_sizes_are_part_of_the_key(memo):
    a = pipeline("flat-buffered", 14, copy_threads=4).build_plan()
    b = pipeline("flat-buffered", 14, copy_threads=8).build_plan()
    assert a.template is not b.template
    assert a.structure() != b.structure()


def test_pipeline_spans_cover_every_step_once():
    for chunks in range(1, 8):
        for ragged in (0, 1):
            chunker = Chunker(chunks * CHUNK - 8 * ragged, CHUNK)
            for depth, steps in ((3, chunks + 2), (1, chunks)):
                spans = pipeline_spans(chunker, depth)
                assert [s for a, b in spans for s in range(a, b)] == list(
                    range(steps)
                )


def test_figure8_grid_gives_one_template_per_copy_thread_count(memo):
    templates: dict[int, set[int]] = {}
    for r in DEFAULT_REPEATS:
        for p in DEFAULT_COPY_THREADS:
            (batch,) = _figure8_cell.plan_batch([(r, p, 256)])
            (plan,) = batch.plans
            templates.setdefault(p, set()).add(id(plan.template))
    assert all(len(ids) == 1 for ids in templates.values())
    assert len(set().union(*templates.values())) == 6
    assert len(memo) == 6


def test_plan_errors_raise_at_build_and_are_never_cached(memo):
    """Copy flows with no threads cannot move their bytes: the template
    build raises the engine's :class:`PlanError` and caches nothing."""
    node = KNLNode(KNLNodeConfig(mode=MemoryMode.FLAT))
    pipe = BufferedPipeline(
        node,
        UsageMode.FLAT,
        PoolSet.compute_only(node, threads=256),
        Chunker(4 * CHUNK, CHUNK),
        StreamKernel(passes=3),
    )
    for _ in range(2):
        with pytest.raises(PlanError, match="zero rate capacity"):
            pipe.build_plan()
    assert not memo


def test_run_reads_phases_only_for_the_reference_loop(memo):
    pipe = pipeline("flat-buffered", 14, 1000)
    plan = pipe.build_plan()
    eng = Engine(pipe.node.resources())
    run_batch(eng, [plan])
    assert plan._blocks is None
    eng.run(plan)
    assert plan._blocks is not None
    assert (plan.phases[0].name, plan.phases[0].flows[0].name) == (
        "step0",
        "copy-in[0]",
    )
    assert (plan.phases[-1].name, plan.phases[-1].flows[0].name) == (
        "step15",
        "copy-out[13]",
    )

"""Plan templates: the sort builders' shared structures.

``mlm_sort_plan`` and ``gnu_sort_plan`` compute a cell's scalars, key a
:class:`~repro.simknl.engine.PlanTemplate` on them (built once per
process) and return a lazy plan holding that template plus the cell's
bytes row. These tests hold the key to everything the template reads,
the phase names of the built plan to those of the ``--events`` stream,
and the memo to its bound. Bit-identity with the reference loop is
``test_fast_path_oracle.py``'s job.
"""

from __future__ import annotations

import importlib.util
import random
import sys
from pathlib import Path

import pytest

import repro.algorithms.mlm_sort as _mlm_sort
import repro.algorithms.parallel_sort as _parallel_sort
from repro.algorithms.costs import DEFAULT_COST, SortCostModel
from repro.algorithms.mlm_sort import MLMSortConfig, mlm_sort_plan
from repro.algorithms.parallel_sort import gnu_sort_plan
from repro.core.modes import UsageMode
from repro.errors import ConfigError
from repro.experiments.runner import sort_variant_seconds
from repro.simknl import batch, engine
from repro.simknl.engine import Engine, Phase
from repro.simknl.flows import Flow
from repro.simknl.node import KNLNode, KNLNodeConfig, MemoryMode


BENCH = Path(__file__).resolve().parents[2] / "bench"


@pytest.fixture
def memo(monkeypatch):
    """A fresh, empty template memo for the test."""
    fresh: dict = {}
    monkeypatch.setattr(engine, "_TEMPLATE_MEMO", fresh)
    return fresh


def cache_node() -> KNLNode:
    return KNLNode(KNLNodeConfig(mode=MemoryMode.CACHE))


def flat_node() -> KNLNode:
    return KNLNode(KNLNodeConfig(mode=MemoryMode.FLAT))


def flow_resources(plan, phase_name: str) -> dict[str, float]:
    (phase,) = [p for p in plan.phases if p.name == phase_name]
    return dict(phase.flows[0].resources)


#: Sizes whose working sets are line-aligned or not, inside the cache,
#: in the "slightly exceeds MCDRAM" band, and far beyond it, so their
#: cache-stream multipliers differ in value or only in the last bits.
SIZES = (
    1 << 27,
    3 * (1 << 27) - 3,
    500_000_000,
    1_000_000_000,
    3_000_000_000,
    6_000_000_000,
)


def test_gnu_cache_cells_with_different_multipliers_never_share(memo):
    node = cache_node()
    templates: dict[tuple, set[int]] = {}
    for n in SIZES:
        plan = gnu_sort_plan(node, n, "random", UsageMode.CACHE)
        ws = n * 8.0 * DEFAULT_COST.gnu_working_set_factor
        want = _parallel_sort._cache_stream_multipliers(node, ws, DEFAULT_COST)
        # The built plan carries this cell's own multipliers ...
        assert flow_resources(plan, "multiway-merge") == want
        assert flow_resources(plan, "copy-back") == want
        thrash = [p for p in plan.phases if p.name == "local-sort/thrash"]
        if thrash:
            assert dict(thrash[0].flows[0].resources) == want
        templates.setdefault(tuple(want.items()), set()).add(id(plan.template))
    # ... and cells whose multipliers differ hold different templates.
    assert len(templates) > 1
    seen: set[int] = set()
    for ids in templates.values():
        assert not ids & seen
        seen |= ids


def test_mlm_implicit_cells_with_different_multipliers_never_share(memo):
    node = cache_node()
    templates: dict[tuple, set[int]] = {}
    for n in SIZES:
        config = MLMSortConfig(n, n, UsageMode.IMPLICIT)
        plan = mlm_sort_plan(node, config)
        mb = n * 8.0
        merge = _mlm_sort._merge_multipliers(
            node, UsageMode.IMPLICIT, mb, DEFAULT_COST
        )
        assert flow_resources(plan, "mega0/merge") == merge
        thrash = [p for p in plan.phases if p.name.endswith("/thrash")]
        stream = _parallel_sort._cache_stream_multipliers(node, mb, DEFAULT_COST)
        if thrash:
            assert dict(thrash[0].flows[0].resources) == stream
        key = (tuple(merge.items()), tuple(stream.items()) if thrash else None)
        templates.setdefault(key, set()).add(id(plan.template))
    assert len(templates) > 1
    seen: set[int] = set()
    for ids in templates.values():
        assert not ids & seen
        seen |= ids


def test_cost_model_is_part_of_the_key(memo):
    node = flat_node()
    config = MLMSortConfig(3_000_000_000, 1_000_000_000, UsageMode.FLAT)
    a = mlm_sort_plan(node, config)
    b = mlm_sort_plan(node, config, SortCostModel(s_copy=2e9))
    assert a.template is not b.template
    assert a.structure() != b.structure()


def test_one_configuration_shares_one_template(memo):
    node = flat_node()
    plans = [
        mlm_sort_plan(node, MLMSortConfig(k * 500_000_000, 500_000_000))
        for k in (2, 3, 7)
    ]
    assert plans[0].template is plans[1].template is plans[2].template
    assert len(memo) == 1
    # Only the structure is shared: each plan keeps its own row.
    assert [list(p.repeats) for p in plans] == [[2, 1], [3, 1], [7, 1]]
    assert len({tuple(p.row) for p in plans}) == 3


@pytest.fixture(scope="module")
def seed1_grid() -> list[tuple]:
    """The benchmark's seed-1 sweep grid: 3,000 draws plus 1,000
    repeats, built by ``bench/run.py`` itself."""
    sys.path.insert(0, str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location(
            "bench_run", BENCH / "run.py"
        )
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
    finally:
        sys.path.remove(str(BENCH))
    cells = run.sweep_cells(
        random.Random(1), run.SWEEP_DRAWS, run.SWEEP_REPEATS
    )
    return [tuple(c) for c in cells]


def test_seed1_grid_has_one_template_per_structure_group(memo, seed1_grid):
    assert len(seed1_grid) == 4000
    by_structure: dict[tuple, set[int]] = {}
    by_template: dict[tuple, set[tuple]] = {}
    for item in sort_variant_seconds.plan_batch(seed1_grid):
        engine_key = tuple((r.name, r.capacity) for r in item.resources)
        (plan,) = item.plans
        by_structure.setdefault((engine_key, plan.structure()), set()).add(
            id(plan.template)
        )
        by_template.setdefault((engine_key, id(plan.template)), set()).add(
            plan.structure()
        )
    assert len(by_structure) == 15
    assert all(len(ids) == 1 for ids in by_structure.values())
    assert len(by_template) == 15
    assert all(len(s) == 1 for s in by_template.values())


def test_lazy_plan_builds_phases_only_when_read(memo):
    """A 6.5-megachunk MLM-sort run: the fast path leaves the phases
    unbuilt; reading them gives every repetition its own names and
    bytes, as the ``--events`` stream shows them."""
    node = flat_node()
    mega = 1_000_000_000
    plan = mlm_sort_plan(node, MLMSortConfig(6_500_000_000, mega))
    assert plan._blocks is None
    assert plan.num_phases == 4 * 7 + 1
    result = batch.run_batch(Engine(node.resources()), [plan])[0]
    assert plan._blocks is None
    names = [p.name for p in plan.phases]
    assert names == [
        f"mega{i}/{stage}"
        for i in range(7)
        for stage in ("setup", "copy-in", "serial-sort", "merge")
    ] + ["final-merge"]
    assert len(result.phase_times) == len(names)
    copy_in = [p.flows[0].bytes_total for p in plan.phases[1::4]]
    assert copy_in == [8.0 * mega] * 6 + [4.0 * mega]
    assert plan.phases[-1].flows[0].bytes_total == 6_500_000_000 * 8.0
    assert plan.phases[1].flows[0].name == "copy-in"
    assert plan.phases[-2].flows[0].name == "mega6/merge"


def test_appending_detaches_the_template(memo):
    node = flat_node()
    plan = mlm_sort_plan(node, MLMSortConfig(3_000_000_000, 1_000_000_000))
    before = plan.structure()
    extra = Phase("extra", [Flow("extra", 1, 1.0, {}, 1.0)])
    plan.add(extra)
    assert plan.template is None
    assert plan.structure()[:-1] == before
    assert plan.phases[-1] is extra
    assert list(plan.repeats) == [3, 1, 1]


def test_node_mode_is_checked_at_template_build_and_never_cached(memo):
    config = MLMSortConfig(2_000_000_000, 1_000_000_000, UsageMode.FLAT)
    for _ in range(2):
        with pytest.raises(ConfigError, match="requires BIOS mode"):
            mlm_sort_plan(cache_node(), config)
    assert not memo

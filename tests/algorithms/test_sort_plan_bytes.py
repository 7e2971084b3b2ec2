"""Per-stage bytes of the timed sort plans, against closed forms.

Each plan's copy and merge stages move a number of bytes that follows
from ``n``, the (mega)chunk size and the element size alone:

* MLM-sort copies every megachunk in once (flat and hybrid modes, all
  threads or, buffered, behind the previous megachunk's sort), merges
  each megachunk out of its own bytes, and, with more than one
  megachunk, merges all ``n * 8`` bytes once more at ``{"ddr": 2.0}``;
* the GNU baseline's multiway merge and copy-back each move ``n * 8``;
* the basic chunked sort copies every chunk in and out once, then
  merges ``n * 8`` at ``{"ddr": 2.0}``.

The tests read each plan's ``phases[i].flows[j]`` bytes and
multipliers. The sort stages' bytes are left out: they are the
calibrated effective level counts (``sort_levels``, split by
``dc_cache_split`` under a cache), which no closed form here restates;
the timing tests in ``test_sorts.py`` pin them against the paper.
"""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.mlm_sort import (
    MLMSortConfig,
    basic_chunked_sort_plan,
    mlm_sort_plan,
)
from repro.algorithms.parallel_sort import gnu_sort_plan
from repro.core.modes import UsageMode
from repro.simknl.node import KNLNode, KNLNodeConfig, MemoryMode

E = 8  # int64
COPY = {"ddr": 1.0, "mcdram": 1.0}
NEAR_TO_FAR = {"mcdram": 1.0, "ddr": 1.0}
DDR_RW = {"ddr": 2.0}

FLAT = KNLNode(KNLNodeConfig(mode=MemoryMode.FLAT))
HYBRID = KNLNode(KNLNodeConfig(mode=MemoryMode.HYBRID))
CACHE = KNLNode(KNLNodeConfig(mode=MemoryMode.CACHE))

#: ``(n, megachunk elements)``: full megachunks, a ragged last one, a
#: single megachunk and one larger than ``n``, at laptop and paper
#: scale.
SIZES = [
    (12_000, 3_000),
    (10_000, 3_000),
    (3_000, 3_000),
    (2_000, 3_000),
    (2_000_000_000, 500_000_000),
    (2_000_000_007, 600_000_000),
    (6_000_000_000, 1_000_000_000),
]

#: ``(variant, node, mode, buffered)`` of every MLM-sort plan shape
#: with explicit or no copies.
MLM_VARIANTS = [
    ("flat", FLAT, UsageMode.FLAT, False),
    ("flat-buffered", FLAT, UsageMode.FLAT, True),
    ("hybrid", HYBRID, UsageMode.HYBRID, False),
    ("hybrid-buffered", HYBRID, UsageMode.HYBRID, True),
    ("ddr", FLAT, UsageMode.DDR, False),
]


def chunk_bytes(n: int, chunk: int) -> list[int]:
    """Closed form of the chunk sizes: full chunks, then the remainder."""
    chunk = min(chunk, n)
    sizes = [chunk * E] * (n // chunk)
    if n % chunk:
        sizes.append(n % chunk * E)
    return sizes


def flows(plan):
    """``(phase name, flow)`` of every flow in the expanded plan."""
    return [(phase.name, f) for phase in plan.phases for f in phase.flows]


def per_megachunk(plan, stage: str) -> dict[int, list]:
    """Megachunk index -> flows of ``stage`` (``copy-in`` or ``merge``).

    An unbuffered copy-in flow is named ``copy-in`` inside phase
    ``mega{i}/copy-in``; a buffered one is ``mega{i}/copy-in`` inside
    the previous megachunk's sort phase.
    """
    out: dict[int, list] = {}
    for phase_name, f in flows(plan):
        label = phase_name if f.name == stage else f.name
        m = re.fullmatch(rf"mega(\d+)/{stage}", label)
        if m:
            out.setdefault(int(m.group(1)), []).append(f)
    return out


def only(fs: list):
    assert len(fs) == 1, fs
    return fs[0]


def check_mlm(plan, n: int, mega: int, mode: UsageMode) -> None:
    sizes = chunk_bytes(n, mega)
    copy_in = per_megachunk(plan, "copy-in")
    merge = per_megachunk(plan, "merge")
    if mode is UsageMode.DDR:
        assert copy_in == {}
    else:
        assert sorted(copy_in) == list(range(len(sizes)))
        for i, size in enumerate(sizes):
            f = only(copy_in[i])
            assert f.bytes_total == size
            assert dict(f.resources) == COPY
        total = sum(only(copy_in[i]).bytes_total for i in copy_in)
        assert total == n * E
    assert sorted(merge) == list(range(len(sizes)))
    for i, size in enumerate(sizes):
        f = only(merge[i])
        assert f.bytes_total == size
        expected = DDR_RW if mode is UsageMode.DDR else NEAR_TO_FAR
        assert dict(f.resources) == expected
    final = [f for _, f in flows(plan) if f.name == "final-merge"]
    if len(sizes) > 1:
        f = only(final)
        assert f.bytes_total == n * E
        assert dict(f.resources) == DDR_RW
    else:
        assert final == []


class TestMlmSortPlan:
    @pytest.mark.parametrize("n, mega", SIZES)
    @pytest.mark.parametrize(
        "node, mode, buffered",
        [v[1:] for v in MLM_VARIANTS],
        ids=[v[0] for v in MLM_VARIANTS],
    )
    def test_stage_bytes(self, node, mode, buffered, n, mega):
        cfg = MLMSortConfig(
            n=n, megachunk_elements=mega, mode=mode,
            buffered_megachunks=buffered,
        )
        check_mlm(mlm_sort_plan(node, cfg), n, mega, mode)

    @settings(max_examples=40, deadline=None)
    @given(
        variant=st.sampled_from(MLM_VARIANTS),
        megachunks=st.integers(min_value=1, max_value=9),
        mega=st.integers(min_value=1, max_value=400_000_000),
        tail=st.integers(min_value=0, max_value=399_999_999),
    )
    def test_stage_bytes_property(self, variant, megachunks, mega, tail):
        _, node, mode, buffered = variant
        n = (megachunks - 1) * mega + min(tail, mega - 1) + 1
        cfg = MLMSortConfig(
            n=n, megachunk_elements=mega, mode=mode,
            buffered_megachunks=buffered,
        )
        check_mlm(mlm_sort_plan(node, cfg), n, mega, mode)


class TestGnuSortPlan:
    @pytest.mark.parametrize("n", [1, 10_000, 2_000_000_000, 6_000_000_007])
    @pytest.mark.parametrize(
        "node, mode", [(FLAT, UsageMode.DDR), (CACHE, UsageMode.CACHE)],
        ids=["ddr", "cache"],
    )
    def test_merge_and_copy_back_move_n_bytes(self, node, mode, n):
        plan = gnu_sort_plan(node, n, mode=mode)
        fs = flows(plan)
        mwm = only([f for _, f in fs if f.name == "mwm"])
        back = only([f for _, f in fs if f.name == "copy-back"])
        assert mwm.bytes_total == back.bytes_total == n * E
        assert dict(mwm.resources) == dict(back.resources)
        if mode is UsageMode.DDR:
            assert dict(mwm.resources) == DDR_RW


class TestBasicChunkedSortPlan:
    @pytest.mark.parametrize(
        "n, chunk",
        [
            (12_000, 3_000),
            (10_000, 3_000),
            (2_000, 3_000),
            (2_000_000_000, 250_000_000),
            (2_000_000_007, 300_000_000),
        ],
    )
    def test_copy_in_copy_out_and_final_merge(self, n, chunk):
        plan = basic_chunked_sort_plan(FLAT, n, chunk)
        sizes = chunk_bytes(n, chunk)
        fs = [f for _, f in flows(plan)]
        for stage in ("copy-in", "copy-out"):
            moved = {
                int(re.fullmatch(rf"{stage}\[(\d+)\]", f.name).group(1)): f
                for f in fs
                if f.name.startswith(f"{stage}[")
            }
            assert sorted(moved) == list(range(len(sizes)))
            assert [moved[i].bytes_total for i in range(len(sizes))] == sizes
            assert sum(f.bytes_total for f in moved.values()) == n * E
            assert all(dict(f.resources) == COPY for f in moved.values())
        final = [f for f in fs if f.name == "final-merge"]
        if len(sizes) > 1:
            f = only(final)
            assert f.bytes_total == n * E
            assert dict(f.resources) == DDR_RW
        else:
            assert final == []

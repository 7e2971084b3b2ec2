"""Tests for the sweep runner (sweep_map / config_hash)."""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.errors import ConfigError
from repro.experiments.runner import config_hash, sweep_map
from repro.telemetry import runtime as _tm

CALLS: list[tuple] = []


def _cell(a: int, b: int) -> int:
    CALLS.append((a, b))
    return a * 10 + b


def _repr_cell(x) -> str:
    return repr(x)


@dataclass(frozen=True)
class _Size:
    nbytes: float


class TestConfigHash:
    def test_deterministic(self):
        assert config_hash(("f", (1, 2))) == config_hash(("f", (1, 2)))

    def test_distinguishes_configs(self):
        assert config_hash(("f", (1, 2))) != config_hash(("f", (2, 1)))
        assert config_hash(("f", (1,))) != config_hash(("g", (1,)))

    def test_handles_non_json_types(self):
        from repro.core.modes import UsageMode

        h1 = config_hash((UsageMode.FLAT, 1.5))
        h2 = config_hash((UsageMode.CACHE, 1.5))
        assert h1 != h2
        assert h1 == config_hash((UsageMode.FLAT, 1.5))

    def test_rejects_address_bearing_repr(self):
        class Opaque:  # default object.__repr__ embeds the address
            pass

        with pytest.raises(ConfigError, match="Opaque"):
            config_hash(("f", (Opaque(),)))

    def test_accepts_stable_custom_repr(self):
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class Stable:
            x: int

        assert config_hash(("f", (Stable(1),))) == config_hash(
            ("f", (Stable(1),))
        )


class TestPinnedStoreKeys:
    """Store keys are literal digests: an encoder change that alters
    one byte of the canonical JSON would orphan every existing store,
    so these cells' keys are pinned to the values stores hold."""

    @pytest.mark.parametrize(
        "cell, digest",
        [
            (("MLM-sort", 4_000_000_000, "random", "DEFAULT_COST"),
             "219fcc25e0837d1c"),
            (("GNU-cache", 6_000_000_000, "reverse", None),
             "17a1173b4b52dac8"),
            (("MLM-ddr", 2_500_000_000, "random", None, 500_000_000),
             "9d7209273b01c73a"),
        ],
    )
    def test_sort_variant_keys(self, cell, digest):
        from repro.algorithms.costs import DEFAULT_COST
        from repro.experiments.runner import cost_key, sort_variant_seconds

        cell = tuple(DEFAULT_COST if c == "DEFAULT_COST" else c for c in cell)
        key = config_hash((cost_key(sort_variant_seconds), cell))
        assert key == digest

    def test_figure8_key(self):
        from repro.experiments.figure8 import _figure8_cell
        from repro.experiments.runner import cost_key

        key = config_hash((cost_key(_figure8_cell), (8, 4, 256)))
        assert key == "47255b2db52fad22"

    def test_bender_key(self):
        from repro.experiments.bender import _bender_cell
        from repro.experiments.runner import cost_key

        cell = (2_000_000_000, 600_000_000, None)
        key = config_hash((cost_key(_bender_cell), cell))
        assert key == "8f66577149e67568"


class TestSweepMap:
    def test_serial_order_preserved(self):
        cells = [(1, 2), (3, 4), (5, 6)]
        assert sweep_map(_cell, cells, memo={}) == [12, 34, 56]

    def test_memo_skips_repeat_cells(self):
        memo: dict = {}
        CALLS.clear()
        sweep_map(_cell, [(1, 1), (2, 2)], memo=memo)
        first = len(CALLS)
        out = sweep_map(_cell, [(2, 2), (1, 1), (3, 3)], memo=memo)
        assert out == [22, 11, 33]
        assert len(CALLS) == first + 1  # only (3, 3) computed

    def test_duplicate_cells_computed_once(self):
        CALLS.clear()
        out = sweep_map(_cell, [(7, 7), (7, 7), (8, 8), (7, 7)], memo={})
        assert out == [77, 77, 88, 77]
        assert len(CALLS) == 2  # (7, 7) deduplicated within the call

    def test_telemetry_session_serves_memo_hits(self):
        memo: dict = {}
        sweep_map(_cell, [(4, 4)], memo=memo)
        assert memo  # populated when no session is active
        CALLS.clear()
        with _tm.telemetry_session():
            out = sweep_map(_cell, [(4, 4)], memo=memo)
        assert out == [44]
        assert CALLS == []  # a session takes the plain run's memo hit

    @pytest.mark.parametrize(
        "cells",
        [
            [(1,), (1.0,), (True,)],
            [(0.0,), (-0.0,), (0,), (False,)],
            [((1, 2),), ((1.0, 2),)],
            [(_Size(16),), (_Size(16.0),)],
        ],
        ids=["int-float-bool", "signed-zeros", "nested", "dataclass-field"],
    )
    def test_equal_cells_of_other_types_are_other_cells(self, cells):
        """Cells equal as tuples but of other types are other
        configurations: each gets its own key and its own result."""
        from repro.experiments import runner

        direct = [_repr_cell(*cell) for cell in cells]
        assert len(set(direct)) == len(cells)
        assert sweep_map(_repr_cell, cells, memo={}) == direct
        keys, _ = runner._cell_keys("f", cells)
        assert keys == [config_hash(("f", cell)) for cell in cells]
        assert len(set(keys)) == len(cells)


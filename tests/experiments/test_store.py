"""Tests for the on-disk result store and replay mode."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import pytest

from repro.errors import ConfigError, StoreError, StoreMissError
from repro.experiments import runner
from repro.experiments.runner import config_hash, replay_session, sweep_map
from repro.experiments.store import (
    ResultStore,
    default_store,
    get_store,
    require_store,
)
from repro.telemetry import names as _tn
from repro.telemetry import runtime as _tm

CALLS: list[tuple] = []


def _cell(a: int, b: int) -> tuple:
    CALLS.append((a, b))
    return (a / 3.0, a * b, [a, "x" * b], {"a": a})


def _never(*cell):  # a cell function that must not run
    raise AssertionError(f"cell function invoked for {cell!r}")


def _probe_cell(a: int, b: int) -> tuple:
    _probe_cell.calls.append((a, b))
    return (a / 3.0, a * b)


_probe_cell.calls = []


def _entry_files(root: Path) -> list[Path]:
    return sorted((root / "v1").rglob("*.json"))


class TestValueRoundTrip:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            0,
            1,
            -7,
            0.1 + 0.2,  # not representable exactly; repr round-trips
            1.0,
            float("1e-308"),
            "text",
            (1, 2.5, "s"),
            ((1, 2), [3, (4,)], {"k": (5,)}),
            [1, [2, [3]]],
            {"a": 1, "b": {"c": (2.0,)}},
            (),
            [],
            {},
        ],
    )
    def test_bit_identical(self, tmp_path, value):
        store = ResultStore(tmp_path)
        assert store.put("k" * 16, value, fn="f")
        found, back = store.get("k" * 16, fn="f")
        assert found
        assert back == value
        assert type(back) is type(value)
        assert repr(back) == repr(value)  # float bit-identity

    def test_int_float_distinguished(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("a" * 16, 1, fn="f")
        store.put("b" * 16, 1.0, fn="f")
        assert type(store.get("a" * 16)[1]) is int
        assert type(store.get("b" * 16)[1]) is float

    @pytest.mark.parametrize(
        "value",
        [
            object(),
            {1: "non-str key"},
            {"__tuple__": [1]},  # would collide with the tuple tag
            (object(),),
        ],
    )
    def test_unstorable_skipped(self, tmp_path, value):
        store = ResultStore(tmp_path)
        assert store.put("k" * 16, value, fn="f") is False
        assert store.stats.unstorable == 1
        assert store.entries() == 0


class TestResultStore:
    def test_miss_then_hit(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.get("ab" * 8) == (False, None)
        assert store.stats.misses == 1
        store.put("ab" * 8, 42, fn="f")
        assert store.get("ab" * 8, fn="f") == (True, 42)
        assert store.stats.hits == 1

    def test_sharded_layout_and_schema(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("deadbeef00000000", {"v": 1}, fn="mod.fn")
        path = tmp_path / "v1" / "de" / "deadbeef00000000.json"
        assert path.is_file()
        entry = json.loads(path.read_text())
        assert entry["schema"] == 1
        assert entry["key"] == "deadbeef00000000"
        assert entry["fn"] == "mod.fn"

    def test_fn_mismatch_is_corrupt_not_hit(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("ab" * 8, 1, fn="writer")
        with pytest.warns(UserWarning, match="corrupt"):
            found, _ = store.get("ab" * 8, fn="other")
        assert not found
        assert store.stats.corrupt == 1

    def test_no_fn_check_when_not_given(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("ab" * 8, 1, fn="writer")
        assert store.get("ab" * 8) == (True, 1)

    def test_nbytes_tracks_entries(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.nbytes() == 0
        store.put("ab" * 8, [1.0] * 50, fn="f")
        assert store.nbytes() == (
            tmp_path / "v1" / "ab" / ("ab" * 8 + ".json")
        ).stat().st_size
        assert store.entries() == 1

    def test_rejects_bad_max_entries(self, tmp_path):
        with pytest.raises(ConfigError, match="max_entries"):
            ResultStore(tmp_path, max_entries=0)

    def test_pre_existing_entries_scanned(self, tmp_path):
        ResultStore(tmp_path).put("ab" * 8, 1, fn="f")
        again = ResultStore(tmp_path)
        assert again.entries() == 1
        assert again.get("ab" * 8, fn="f") == (True, 1)


class TestCorruption:
    def _corrupt(self, store, key, text):
        path = Path(store._path(key))
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)

    @pytest.mark.parametrize(
        "text",
        [
            "",  # truncated to nothing
            '{"schema": 1, "key"',  # truncated JSON
            "[1, 2]",  # not an object
            '{"schema": 99, "key": "k", "fn": "f", "value": 1}',  # schema
            '{"schema": 1, "key": "WRONG", "fn": "f", "value": 1}',  # key
            '{"schema": 1, "key": "KEY", "fn": "f"}',  # no value
        ],
    )
    def test_corrupt_entry_skipped_and_counted(self, tmp_path, text):
        store = ResultStore(tmp_path)
        key = "KEY"
        self._corrupt(store, key, text.replace('"KEY"', f'"{key}"'))
        with pytest.warns(UserWarning, match="corrupt"):
            found, value = store.get(key, fn="f")
        assert (found, value) == (False, None)
        assert store.stats.corrupt == 1
        assert store.stats.misses == 1

    def test_warns_once_then_counts_silently(self, tmp_path):
        store = ResultStore(tmp_path)
        self._corrupt(store, "aaaa", "garbage")
        self._corrupt(store, "bbbb", "garbage")
        with pytest.warns(UserWarning, match="corrupt"):
            store.get("aaaa")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            store.get("bbbb")  # counted, not warned
        assert store.stats.corrupt == 2

    def test_next_write_replaces_corrupt_entry(self, tmp_path):
        store = ResultStore(tmp_path)
        self._corrupt(store, "aaaa", "garbage")
        with pytest.warns(UserWarning):
            store.get("aaaa")
        store.put("aaaa", 7, fn="f")
        assert store.get("aaaa", fn="f") == (True, 7)

    def test_sweep_map_recomputes_over_corrupt_store(self, tmp_path):
        store = ResultStore(tmp_path)
        key = config_hash((_cell.__qualname__, (1, 2)))
        self._corrupt(store, key, "garbage")
        CALLS.clear()
        with pytest.warns(UserWarning, match="corrupt"):
            out = sweep_map(_cell, [(1, 2)], memo={}, store=store)
        assert CALLS == [(1, 2)]  # skipped the bad entry, recomputed
        assert store.get(key, fn=_cell.__qualname__) == (True, out[0])


class TestGC:
    def test_put_enforces_bound(self, tmp_path):
        store = ResultStore(tmp_path, max_entries=3)
        for i in range(6):
            store.put(f"{i:04x}" * 4, i, fn="f")
        assert store.entries() == 3
        assert store.stats.evictions == 3

    def test_evicts_oldest_mtime_first(self, tmp_path):
        store = ResultStore(tmp_path, max_entries=10)
        keys = [f"{i:04x}" * 4 for i in range(5)]
        for i, key in enumerate(keys):
            store.put(key, i, fn="f")
            os.utime(store._path(key), (1000 + i, 1000 + i))
        store.max_entries = 3
        assert store.gc() == 2
        assert store.entries() == 3
        assert not Path(store._path(keys[0])).exists()
        assert not Path(store._path(keys[1])).exists()
        for key in keys[2:]:
            assert Path(store._path(key)).exists()

    def test_hit_refreshes_lru_clock(self, tmp_path):
        store = ResultStore(tmp_path, max_entries=10)
        keys = [f"{i:04x}" * 4 for i in range(3)]
        for i, key in enumerate(keys):
            store.put(key, i, fn="f")
            os.utime(store._path(key), (1000 + i, 1000 + i))
        store.get(keys[0], fn="f")  # touch the oldest
        store.max_entries = 2
        store.gc()
        assert Path(store._path(keys[0])).exists()  # survived: recently used
        assert not Path(store._path(keys[1])).exists()

    def test_gc_noop_under_bound(self, tmp_path):
        store = ResultStore(tmp_path, max_entries=10)
        store.put("ab" * 8, 1, fn="f")
        assert store.gc() == 0
        assert store.entries() == 1

    def test_env_default_bound(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_MAX_ENTRIES", "2")
        store = ResultStore(tmp_path)
        assert store.max_entries == 2


class TestConcurrency:
    def test_concurrent_writers_one_dir(self, tmp_path):
        keys = [f"{i:04x}" * 4 for i in range(40)]

        def write_all():
            mine = ResultStore(tmp_path)
            for i, key in enumerate(keys):
                mine.put(key, [i, i / 7.0], fn="f")

        threads = [threading.Thread(target=write_all) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        reader = ResultStore(tmp_path)
        assert reader.entries() == len(keys)
        for i, key in enumerate(keys):
            assert reader.get(key, fn="f") == (True, [i, i / 7.0])
        assert reader.stats.corrupt == 0

    def test_gc_tolerates_concurrent_removal(self, tmp_path):
        store = ResultStore(tmp_path, max_entries=10)
        for i in range(4):
            store.put(f"{i:04x}" * 4, i, fn="f")
        Path(store._path("0000" * 4)).unlink()  # another process evicted it
        store.max_entries = 2
        store.gc()
        assert store.entries() == 2

    def test_cross_process_warm_hit_bit_identity(self, tmp_path):
        """A store warmed in another process serves identical values."""
        cells = [(1, 2), (3, 4), (7, 5)]
        code = (
            "import sys\n"
            "from repro.experiments.runner import sweep_map\n"
            "def cell(a, b):\n"
            "    return (a / 3.0, a * b, [a, 'x' * b], {'a': a})\n"
            f"cell.__qualname__ = {_cell.__qualname__!r}\n"
            f"out = sweep_map(cell, {cells!r}, memo={{}},"
            " store=sys.argv[1])\n"
            "print(repr(out))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(
            Path(__file__).resolve().parents[2] / "src"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path)],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        CALLS.clear()
        store = ResultStore(tmp_path)
        warm = sweep_map(_cell, cells, memo={}, store=store)
        assert CALLS == []  # every cell came from the other process
        assert store.stats.hits == len(cells)
        assert repr(warm) == proc.stdout.strip()  # bit-identical


class TestSweepMapTiers:
    def test_write_through_and_memo_warming(self, tmp_path):
        store = ResultStore(tmp_path)
        CALLS.clear()
        first = sweep_map(_cell, [(2, 3)], memo={}, store=store)
        assert CALLS == [(2, 3)]
        assert store.stats.writes == 1
        memo: dict = {}
        again = sweep_map(_cell, [(2, 3)], memo=memo, store=store)
        assert CALLS == [(2, 3)]  # store hit, no recompute
        assert again == first
        assert len(memo) == 1  # tier-2 hit warmed tier 1
        sweep_map(_cell, [(2, 3)], memo=memo, store=store)
        assert store.stats.hits == 1  # second lookup never hit disk

    def test_warm_store_fills_every_repeat_index(self, tmp_path):
        a, b, c = (1, 2), (3, 4), (5, 6)
        cells = [a, b, a, c, a]
        want = sweep_map(_cell, cells, memo={}, store=tmp_path)
        store = ResultStore(tmp_path)
        gets: list[str] = []
        real_get = store.get

        def counting_get(key, fn=None):
            gets.append(key)
            return real_get(key, fn=fn)

        store.get = counting_get
        CALLS.clear()
        warm = sweep_map(_cell, cells, memo={}, store=store)
        assert CALLS == []  # every value came from the store
        assert warm == want == [_cell(*cell) for cell in cells]
        assert sorted(gets) == sorted(
            {config_hash((_cell.__qualname__, cell)) for cell in cells}
        )

    def test_memo_hit_backfills_cold_store(self, tmp_path):
        # A cell computed store-less, then swept again with a store:
        # the memo answers, but the store must end up replay-complete.
        memo: dict = {}
        cold = sweep_map(_cell, [(3, 7)], memo=memo)
        CALLS.clear()
        store = ResultStore(tmp_path)
        sweep_map(_cell, [(3, 7)], memo=memo, store=store)
        assert CALLS == []  # memo hit, no recompute
        assert store.stats.writes == 1  # ...yet persisted
        with replay_session(store):
            assert sweep_map(_cell, [(3, 7)]) == cold
        key = config_hash((_cell.__qualname__, (3, 7)))
        assert store.get(key, fn=_cell.__qualname__) == (True, cold[0])

    def test_backfill_skips_entries_already_on_disk(self, tmp_path):
        store = ResultStore(tmp_path)
        memo: dict = {}
        sweep_map(_cell, [(3, 8)], memo=memo, store=store)
        sweep_map(_cell, [(3, 8)], memo=memo, store=store)
        assert store.stats.writes == 1  # no rewrite churn on hits

    def test_no_store_means_single_tier(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        CALLS.clear()
        sweep_map(_cell, [(9, 9)], memo={})
        sweep_map(_cell, [(9, 9)], memo={})
        assert CALLS == [(9, 9), (9, 9)]  # fresh memo, nothing on disk

    def test_repro_store_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path))
        CALLS.clear()
        sweep_map(_cell, [(5, 6)], memo={})
        assert default_store() is get_store(tmp_path)
        sweep_map(_cell, [(5, 6)], memo={})
        assert CALLS == [(5, 6)]

    def test_telemetry_session_writes_through(self, tmp_path):
        store = ResultStore(tmp_path)
        CALLS.clear()
        with _tm.telemetry_session() as tel:
            sweep_map(_cell, [(4, 1)], memo={}, store=store)
            sweep_map(_cell, [(4, 1)], memo={}, store=store)
        # The first call computed and wrote through; the second was
        # served from the store, as it would be without a session.
        assert CALLS == [(4, 1)]
        assert store.stats.writes == 1
        assert tel.metrics.counter(_tn.STORE_WRITES_TOTAL).value() == 1
        assert tel.metrics.counter(_tn.STORE_HITS_TOTAL).value() == 1
        CALLS.clear()
        sweep_map(_cell, [(4, 1)], memo={}, store=store)
        assert CALLS == []  # the instrumented run warmed the store

    def test_store_telemetry_counters(self, tmp_path):
        store = ResultStore(tmp_path, max_entries=2)
        with _tm.telemetry_session() as tel:
            store.get("aa" * 8)  # miss
            for i in range(3):
                store.put(f"{i:04x}" * 4, i, fn="f")  # 3 writes, 1 gc
            store.get("0002" * 4, fn="f")  # hit
            counters = {
                name: tel.metrics.counter(name).value()
                for name in (
                    _tn.STORE_HITS_TOTAL,
                    _tn.STORE_MISSES_TOTAL,
                    _tn.STORE_WRITES_TOTAL,
                    _tn.STORE_EVICTIONS_TOTAL,
                )
            }
            nbytes = tel.metrics.gauge(_tn.STORE_BYTES).value()
        assert counters == {
            _tn.STORE_HITS_TOTAL: 1,
            _tn.STORE_MISSES_TOTAL: 1,
            _tn.STORE_WRITES_TOTAL: 3,
            _tn.STORE_EVICTIONS_TOTAL: 1,
        }
        assert nbytes == store.nbytes() > 0

    def test_memo_cap_warns_once_and_counts(self, tmp_path, monkeypatch):
        monkeypatch.setattr(runner, "_SWEEP_MEMO_MAX", 1)
        monkeypatch.setattr(runner, "_MEMO_CAP_WARNED", False)
        with _tm.telemetry_session() as tel:
            with pytest.warns(UserWarning, match="memo reached its cap"):
                sweep_map(_cell, [(1, 1), (2, 2), (3, 3)], memo={})
            evicted = tel.metrics.counter(
                _tn.SWEEP_MEMO_EVICTED_TOTAL
            ).value()
        assert evicted == 2  # first cell cached, two dropped
        # The warning fired; further drops are silent.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sweep_map(_cell, [(4, 4), (5, 5)], memo={})


class TestReplay:
    def test_cold_store_lists_missing_hashes(self, tmp_path):
        store = ResultStore(tmp_path)
        cells = [(i, i) for i in range(12)]
        keys = [
            config_hash((_never.__qualname__, cell)) for cell in cells
        ]
        with replay_session(store):
            with pytest.raises(StoreMissError) as err:
                sweep_map(_never, cells)
        assert err.value.missing == tuple(keys)
        assert "12 of 12" in str(err.value)
        assert keys[0] in str(err.value)
        assert "(2 more)" in str(err.value)  # 10 shown, 2 elided

    def test_warm_store_replays_without_invoking_fn(self, tmp_path):
        store = ResultStore(tmp_path)
        cells = [(1, 2), (3, 4)]
        cold = sweep_map(_cell, cells, memo={}, store=store)
        never = _never
        never.__qualname__ = _cell.__qualname__
        try:
            with replay_session(store):
                warm = sweep_map(never, cells)
        finally:
            never.__qualname__ = "_never"
        assert warm == cold

    def test_replay_bypasses_memo(self, tmp_path):
        # Cells this process just computed (memo-warm) still fail
        # against a cold store: replay proves the *store* is complete.
        memo: dict = {}
        sweep_map(_cell, [(8, 8)], memo=memo)
        with replay_session(ResultStore(tmp_path)):
            with pytest.raises(StoreMissError):
                sweep_map(_cell, [(8, 8)], memo=memo)

    def test_partial_store_reports_only_misses(self, tmp_path):
        store = ResultStore(tmp_path)
        sweep_map(_cell, [(1, 2)], memo={}, store=store)
        with replay_session(store):
            with pytest.raises(StoreMissError) as err:
                sweep_map(_cell, [(1, 2), (6, 6)], memo={})
        assert err.value.missing == (
            config_hash((_cell.__qualname__, (6, 6))),
        )

    def test_require_store_without_any_configured(self, monkeypatch):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        with pytest.raises(StoreError, match="--store"):
            require_store(None)

    def test_replay_session_accepts_path(self, tmp_path):
        with replay_session(tmp_path) as store:
            assert isinstance(store, ResultStore)
            assert store is get_store(tmp_path)


class TestValidatingProbe:
    def test_probe_validates_without_stats_or_lru_touch(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("k" * 16, (1.5, "x"), fn="f")
        path = _entry_files(tmp_path)[0]
        os.utime(path, (1000, 1000))
        assert store.probe("k" * 16, fn="f") is True
        assert store.stats.hits == 0  # not counted as a hit
        assert path.stat().st_mtime == 1000  # LRU clock untouched
        assert store.probe("m" * 16) is False  # absent, not corrupt
        assert store.stats.corrupt == 0
        assert store.probe("k" * 16, fn="other") is False
        assert store.stats.corrupt == 1
        path.write_text("{garbage")
        assert store.probe("k" * 16, fn="f") is False
        assert store.stats.corrupt == 2

    def test_memo_hit_rewrites_corrupt_entry_for_replay(self, tmp_path):
        """Regression: corrupt entries behind memo hits get rewritten."""
        cells = [(2, 3), (4, 5)]
        memo: dict = {}
        store_path = str(tmp_path)
        expect = sweep_map(
            _probe_cell, cells, memo=memo, store=store_path
        )
        for path in _entry_files(tmp_path):
            path.write_text("{corrupt")
        # Every cell is a memo hit; the old existence-only probe
        # skipped the backfill here and left replay broken.
        again = sweep_map(_probe_cell, cells, memo=memo, store=store_path)
        assert again == expect
        _probe_cell.calls.clear()
        with replay_session(get_store(store_path)):
            replayed = sweep_map(_probe_cell, cells, memo={})
        assert replayed == expect
        assert _probe_cell.calls == []  # replay never computes


class TestCli:
    def test_figure7_store_then_replay_byte_identical(self, tmp_path):
        from repro.cli import main

        store = tmp_path / "store"
        cold_csv = tmp_path / "cold.csv"
        warm_csv = tmp_path / "warm.csv"
        metrics = tmp_path / "m.json"
        assert main(
            ["figure7", "--store", str(store), "--csv", str(cold_csv)]
        ) == 0
        assert main(
            [
                "replay",
                "figure7",
                "--store",
                str(store),
                "--csv",
                str(warm_csv),
                "--metrics",
                str(metrics),
            ]
        ) == 0
        assert cold_csv.read_bytes() == warm_csv.read_bytes()
        snap = json.loads(metrics.read_text())["metrics"]
        assert snap["store.hits_total"]["series"][0]["value"] > 0
        # Zero engine invocations: no engine metric was ever touched.
        assert not any(name.startswith("engine.") for name in snap)

    def test_replay_cold_store_exits_nonzero(self, tmp_path, capsys):
        from repro.cli import main

        rc = main(
            ["replay", "table3", "--store", str(tmp_path / "empty")]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "missing" in err

    def test_replay_needs_target(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["replay", "--store", str(tmp_path)]) == 1
        assert "target" in capsys.readouterr().err

    def test_replay_rejects_unreplayable(self, tmp_path, capsys):
        from repro.cli import main

        assert (
            main(["replay", "faults", "--store", str(tmp_path)]) == 1
        )
        assert "faults" in capsys.readouterr().err

    def test_target_invalid_outside_replay(self, capsys):
        from repro.cli import main

        assert main(["table2", "figure7"]) == 1
        assert "only valid with 'replay'" in capsys.readouterr().err

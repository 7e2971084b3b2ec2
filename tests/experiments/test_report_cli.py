"""Tests for report rendering and the CLI."""

from __future__ import annotations

import csv
import io

import pytest

from repro.cli import build_parser, main
from repro.errors import ConfigError
from repro.experiments import ALL_EXPERIMENTS, run_table2
from repro.experiments.report import render_series, render_table, to_csv
from repro.experiments.runner import ExperimentResult, SeriesSpec


@pytest.fixture
def result():
    return ExperimentResult(
        experiment="demo",
        title="Demo result",
        columns=["x", "y"],
        rows=[{"x": 1, "y": 2.5}, {"x": 2, "y": 5.0}],
        notes=["a note"],
    )


class TestRenderTable:
    def test_contains_title_and_values(self, result):
        text = render_table(result)
        assert "Demo result" in text
        assert "2.500" in text
        assert "note: a note" in text

    def test_missing_cells_blank(self):
        r = ExperimentResult("d", "t", ["a", "b"], [{"a": 1}])
        text = render_table(r)
        assert "1" in text

    def test_empty_rows(self):
        r = ExperimentResult("d", "t", ["a"], [])
        assert "a" in render_table(r)

    def test_empty_rows_header_sets_widths(self):
        r = ExperimentResult("d", "t", ["alpha", "b"], [])
        lines = render_table(r).splitlines()
        header, sep = lines[2], lines[3]
        assert header == "alpha | b"
        assert sep == "------+--"

    def test_long_float_widens_column(self):
        r = ExperimentResult(
            "d", "t", ["x"],
            [{"x": 123456789.123456}, {"x": 1.0}],
        )
        lines = render_table(r).splitlines()
        # abs >= 100 renders with one decimal; all rows align to it.
        assert "123456789.1" in lines[4]
        widths = {len(line) for line in lines[2:6]}
        assert len(widths) == 1

    def test_columns_aligned_with_mixed_widths(self):
        r = ExperimentResult(
            "d", "t", ["name", "v"],
            [{"name": "a", "v": 1}, {"name": "longer-name", "v": 22}],
        )
        lines = render_table(r).splitlines()
        positions = {line.index("|") for line in lines[2:] if "|" in line}
        assert len(positions) == 1


class TestRenderSeries:
    def test_bars_scale(self, result):
        text = render_series(result, "x", ["y"])
        lines = [l for l in text.splitlines() if "|" in l]
        assert len(lines) == 2
        assert lines[1].count("#") > lines[0].count("#")

    def test_unknown_column(self, result):
        with pytest.raises(ConfigError):
            render_series(result, "x", ["z"])

    def test_no_numeric_values(self):
        r = ExperimentResult("d", "t", ["x", "y"], [{"x": "a", "y": "b"}])
        with pytest.raises(ConfigError):
            render_series(r, "x", ["y"])

    def test_single_point_series(self):
        r = ExperimentResult("d", "t", ["x", "y"], [{"x": "only", "y": 3.0}])
        text = render_series(r, "x", ["y"], width=10)
        bars = [l for l in text.splitlines() if "|" in l]
        # The lone point is its own maximum: a full-width bar.
        assert len(bars) == 1
        assert bars[0].count("#") == 10
        assert "only" in bars[0]

    def test_non_numeric_rows_skipped(self):
        r = ExperimentResult(
            "d", "t", ["x", "y"],
            [{"x": "a", "y": 2.0}, {"x": "b", "y": "n/a"}],
        )
        bars = [
            l for l in render_series(r, "x", ["y"]).splitlines() if "|" in l
        ]
        assert len(bars) == 1


class TestCsv:
    def test_roundtrip(self, result):
        text = to_csv(result)
        lines = text.strip().splitlines()
        assert lines[0] == "x,y"
        assert lines[1] == "1,2.5"

    def test_roundtrip_through_csv_module(self, result):
        parsed = list(csv.DictReader(io.StringIO(to_csv(result))))
        assert parsed == [
            {"x": "1", "y": "2.5"},
            {"x": "2", "y": "5.0"},
        ]

    def test_quoting_of_commas(self):
        r = ExperimentResult(
            "d", "t", ["note"], [{"note": "a, with comma"}]
        )
        parsed = list(csv.DictReader(io.StringIO(to_csv(r))))
        assert parsed[0]["note"] == "a, with comma"

    def test_missing_cells_empty(self):
        r = ExperimentResult("d", "t", ["a", "b"], [{"a": 1}])
        parsed = list(csv.DictReader(io.StringIO(to_csv(r))))
        assert parsed[0] == {"a": "1", "b": ""}


class TestResultColumn:
    def test_column_access(self, result):
        assert result.column("y") == [2.5, 5.0]

    def test_unknown_column(self, result):
        with pytest.raises(ConfigError):
            result.column("nope")


class TestCli:
    def test_parser_accepts_experiments(self):
        p = build_parser()
        args = p.parse_args(["table2"])
        assert args.experiment == "table2"

    def test_parser_rejects_unknown(self):
        for name in ("table9", "serve", "submit"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([name])

    def test_main_runs_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "S_copy" in out

    def test_main_runs_table3_with_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "t3.csv"
        assert main(["table3", "--csv", str(csv_path)]) == 0
        assert csv_path.read_text().startswith("repeats,")

    def test_main_all_csv_keeps_directory(self, tmp_path, capsys):
        # 'all' prefixes the file name with the artifact, not the path.
        assert main(["all", "--csv", str(tmp_path / "r.csv")]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            f"{name}-r.csv" for name in ALL_EXPERIMENTS
        )
        assert (tmp_path / "table2-r.csv").read_bytes() == to_csv(
            run_table2()
        ).encode()

    def test_main_csv_to_stdout(self, capsys):
        assert main(["table2", "--csv", "-"]) == 0
        assert "parameter,measured_gb" in capsys.readouterr().out

    def test_main_chart_mode(self, capsys):
        assert main(["figure7", "--chart"]) == 0
        assert "#" in capsys.readouterr().out

    def test_chart_falls_back_to_table_without_spec(self, capsys):
        # table2 declares no series_spec; --chart must not crash.
        assert main(["table2", "--chart"]) == 0
        out = capsys.readouterr().out
        assert "S_copy" in out and "#" not in out


class TestSeriesSpecs:
    CHARTED = (
        "figure6", "figure7", "figure8",
        "nvm", "hybrid", "energy", "faults",
    )

    @pytest.mark.parametrize("name", CHARTED)
    def test_chart_drivers_declare_specs(self, name):
        spec = getattr(ALL_EXPERIMENTS[name], "series_spec", None)
        assert isinstance(spec, SeriesSpec), (
            f"driver {name!r} should carry a series_spec attribute"
        )
        assert spec.x and spec.ys

    def test_specs_name_real_columns(self):
        # The spec's columns must exist in the driver's own output, so
        # --chart can never fail on a column mismatch. Checked on the
        # cheapest charted driver; the others are covered by the
        # driver tests exercising their column sets.
        result = ALL_EXPERIMENTS["figure7"]()
        spec = ALL_EXPERIMENTS["figure7"].series_spec
        assert spec.x in result.columns
        for y in spec.ys:
            assert y in result.columns

"""Report tables and shape checks."""

import pytest

from repro.experiments.report import format_series_table, format_table, shape_check


class TestFormatTable:
    def test_alignment_and_rows(self):
        text = format_table(["a", "bb"], [[1, 2.5], [10, 0.25]])
        lines = text.splitlines()
        assert len(lines) == 4  # header, rule, two rows
        assert "2.5000" in text

    def test_title(self):
        text = format_table(["x"], [[1]], title="My table")
        assert text.splitlines()[0] == "My table"

    def test_empty_rows(self):
        text = format_table(["x", "y"], [])
        assert "x" in text and "y" in text

    def test_custom_float_format(self):
        text = format_table(["x"], [[0.123456]], float_fmt="{:.2f}")
        assert "0.12" in text


class TestSeriesTable:
    def test_layout(self):
        text = format_series_table(
            "n", [50, 100], {"CORP": [0.5, 0.6], "DRA": [0.2, 0.3]}
        )
        lines = text.splitlines()
        assert lines[0].split() == ["n", "CORP", "DRA"]
        assert "0.6000" in text


class TestShapeCheck:
    def test_ascending_ok(self):
        series = {"a": [1, 1, 1], "b": [2, 2, 2], "c": [3, 3, 3]}
        assert shape_check(series, ["a", "b", "c"], direction="ascending")

    def test_ascending_violated(self):
        series = {"a": [5, 5, 5], "b": [2, 2, 2]}
        assert not shape_check(series, ["a", "b"], direction="ascending")

    def test_descending(self):
        series = {"a": [3, 3], "b": [1, 1]}
        assert shape_check(series, ["a", "b"], direction="descending")

    def test_fraction_tolerance(self):
        series = {"a": [1, 9, 1, 1, 1], "b": [2, 2, 2, 2, 2]}
        assert shape_check(series, ["a", "b"], min_points_fraction=0.6)
        assert not shape_check(series, ["a", "b"], min_points_fraction=0.9)

    def test_bad_direction(self):
        with pytest.raises(ValueError):
            shape_check({"a": [1]}, ["a"], direction="sideways")


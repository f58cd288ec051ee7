"""Unit tests for the experiment result containers."""

import math

import pytest

from repro.experiments.series import ResultTable, Series


class TestSeries:
    def test_append_and_len(self):
        series = Series("demo")
        series.append(1)
        series.append(2.5)
        assert series.values == [1.0, 2.5]


class TestResultTable:
    @pytest.fixture
    def table(self):
        table = ResultTable(title="Demo", x_label="k", notes="note")
        table.add_row(10, {"a": 1.0, "b": 2.0})
        table.add_row(20, {"a": 3.0, "b": 4.0})
        return table

    def test_add_row_and_column(self, table):
        assert table.x_values == [10.0, 20.0]
        assert table.series["a"].values == [1.0, 3.0]
        assert table.series["b"].values == [2.0, 4.0]

    def test_add_series_idempotent(self, table):
        series = table.add_series("a")
        assert series is table.series["a"]

    def test_render_contains_everything(self, table):
        text = table.render()
        assert "Demo" in text
        assert "note" in text
        assert "k" in text and "a" in text and "b" in text
        assert "10" in text and "4" in text

    def test_render_handles_nan_and_missing(self):
        table = ResultTable(title="t", x_label="x")
        table.add_row(1, {"a": float("nan")})
        table.add_row(2, {"a": 5.0, "b": 1.0})
        text = table.render()
        assert "-" in text

    def test_to_csv(self, table):
        csv = table.to_csv()
        lines = csv.splitlines()
        assert lines[0] == "k,a,b"
        assert len(lines) == 3

    def test_str_is_render(self, table):
        assert str(table) == table.render()

    def test_empty_table_renders(self):
        table = ResultTable(title="empty", x_label="x")
        table.add_series("only")
        assert "empty" in table.render()

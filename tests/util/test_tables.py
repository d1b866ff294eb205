"""Tests for text table rendering."""

import pytest

from repro.util.tables import format_table


class TestFormatTable:
    def test_alignment_and_content(self):
        text = format_table(
            ["name", "value"],
            [["alpha", 1.5], ["b", 22.25]],
            float_format=".2f",
        )
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert "1.50" in text
        assert "22.25" in text
        # All rows share one width per column.
        assert len(set(len(line) for line in lines)) == 1

    def test_title_and_underline(self):
        text = format_table(["a"], [[1]], title="Table 1")
        lines = text.splitlines()
        assert lines[0] == "Table 1"
        assert lines[1] == "=" * len("Table 1")

    def test_none_renders_as_dash(self):
        text = format_table(["a"], [[None]])
        assert "-" in text.splitlines()[-1]

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(ValueError, match="row 0"):
            format_table(["a", "b"], [[1]])

    def test_integers_not_float_formatted(self):
        text = format_table(["n"], [[3]])
        assert "3" in text
        assert "3.000" not in text


"""Tests for the plain-text reporting helpers."""

from repro.experiments.reporting import format_percent, render_table


class TestFormatPercent:
    def test_gain(self):
        assert format_percent(1.019) == "+1.90%"

    def test_loss(self):
        assert format_percent(0.99) == "-1.00%"

    def test_flat(self):
        assert format_percent(1.0) == "+0.00%"

    def test_digits(self):
        assert format_percent(1.12345, digits=1) == "+12.3%"


class TestRenderTable:
    def test_alignment_and_title(self):
        text = render_table(["name", "value"],
                            [["a", 1.0], ["longer-name", 2.5]],
                            title="My table")
        lines = text.splitlines()
        assert lines[0] == "My table"
        assert "name" in lines[1]
        assert set(lines[2]) <= {"-", " "}
        assert "longer-name" in text

    def test_float_formatting(self):
        text = render_table(["x"], [[1.23456]], float_digits=2)
        assert "1.23" in text
        assert "1.2345" not in text

    def test_mixed_types(self):
        text = render_table(["a", "b"], [[42, "str"]])
        assert "42" in text and "str" in text

    def test_empty_rows(self):
        text = render_table(["a"], [])
        assert "a" in text


class TestRenderTableLayout:
    ROWS = [["mcf", 0.41234], ["exchange2", 2.5], ["x", 10]]

    def test_columns_start_at_the_same_offset(self):
        lines = render_table(["bench", "ipc"], self.ROWS).splitlines()
        offsets = {line.index(cell) for line, cell in
                   zip(lines[2:], ["0.412", "2.500", "10"])}
        assert offsets == {lines[0].index("ipc")}

    def test_rule_widths_match_columns(self):
        lines = render_table(["bench", "ipc"], self.ROWS).splitlines()
        assert [len(part) for part in lines[1].split("  ")] == [9, 5]

    def test_no_trailing_whitespace(self):
        text = render_table(["a", "b"], [["longer", ""], ["x", "y"]])
        assert all(line == line.rstrip() for line in text.splitlines())

    def test_rows_may_be_a_generator(self):
        text = render_table(["n"], ([i] for i in range(3)))
        assert text.splitlines()[2:] == ["0", "1", "2"]

    def test_without_title_header_comes_first(self):
        assert render_table(["a"], [[1]]).splitlines()[0] == "a"

    def test_format_percent_halving(self):
        assert format_percent(0.5, digits=0) == "-50%"

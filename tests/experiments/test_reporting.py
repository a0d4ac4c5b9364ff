"""Tests for the ASCII reporting helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.reporting import (
    format_mapping,
    format_series,
    format_surface,
    write_report,
)
from repro.experiments.sweeps import LossSurface


@pytest.fixture
def surface() -> LossSurface:
    return LossSurface(
        row_label="buffer_s",
        col_label="cutoff_s",
        rows=np.array([0.1, 1.0]),
        cols=np.array([1.0, 10.0]),
        losses=np.array([[1e-2, 3e-2], [0.0, 1e-4]]),
        meta={"utilization": 0.8},
    )


class TestFormatSurface:
    def test_contains_axes_and_values(self, surface):
        text = format_surface(surface, title="demo")
        assert "demo" in text
        assert "buffer_s" in text and "cutoff_s" in text
        assert "1.00e-02" in text
        assert "utilization" in text

    def test_zero_rendered_distinctly(self, surface):
        text = format_surface(surface)
        assert "        0" in text

    def test_line_count(self, surface):
        text = format_surface(surface, title="t")
        # title + meta + header + rule + 2 data rows
        assert len(text.splitlines()) == 6


class TestFormatSeries:
    def test_multiple_columns(self):
        text = format_series(
            "x", [1.0, 2.0], {"a": [0.1, 0.2], "b": [0.3, 0.4]}, title="series"
        )
        lines = text.splitlines()
        assert lines[0] == "series"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            format_series("x", [1.0, 2.0], {"a": [0.1]})


class TestFormatMapping:
    def test_alignment(self):
        text = format_mapping({"alpha": 1.34, "very_long_name": 2.0})
        lines = text.splitlines()
        assert lines[0].index("=") == lines[1].index("=")



class TestWriteReport:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "sub" / "report.txt"
        write_report(str(path), "hello")
        assert path.read_text() == "hello\n"

    def test_no_double_newline(self, tmp_path):
        path = tmp_path / "r.txt"
        write_report(str(path), "hello\n")
        assert path.read_text() == "hello\n"

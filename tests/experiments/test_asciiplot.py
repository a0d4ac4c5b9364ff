"""Tests for the ASCII visualization helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.asciiplot import heatmap
from repro.experiments.sweeps import LossSurface


@pytest.fixture
def surface() -> LossSurface:
    return LossSurface(
        row_label="buffer_s",
        col_label="cutoff_s",
        rows=np.array([0.1, 1.0, 5.0]),
        cols=np.array([1.0, 10.0]),
        losses=np.array([[1e-2, 3e-2], [1e-4, 1e-3], [0.0, 1e-6]]),
    )


class TestHeatmap:
    def test_contains_axes_and_all_rows(self, surface):
        text = heatmap(surface, title="demo")
        assert "demo" in text
        assert "buffer_s" in text and "cutoff_s" in text
        # One line per row plus header/footer lines.
        body = [line for line in text.splitlines() if "|" in line]
        assert len(body) == surface.rows.size

    def test_rows_descending(self, surface):
        body = [line for line in heatmap(surface).splitlines() if "|" in line]
        assert body[0].strip().startswith("5")
        assert body[-1].strip().startswith("0.1")

    def test_zero_cells_blank(self, surface):
        body = [line for line in heatmap(surface).splitlines() if "|" in line]
        top_row = body[0].split("|")[1]
        assert top_row[:2] == "  "  # the zero cell renders as blanks

    def test_higher_loss_darker(self, surface):
        ramp = " .:-=+*#%@"
        body = [line for line in heatmap(surface).splitlines() if "|" in line]
        bottom = body[-1].split("|")[1]
        first, second = bottom[0], bottom[2]
        assert ramp.index(second) >= ramp.index(first)



class TestRunner:
    def test_available_figures(self):
        from repro.experiments.runner import available_figures

        assert available_figures() == list(range(2, 15))

    def test_unknown_figure_rejected(self):
        from repro.experiments.runner import run_figure

        with pytest.raises(ValueError, match="unknown figure"):
            run_figure(99)

    def test_run_figure_2_tiny(self):
        from repro.experiments.runner import run_figure

        text = run_figure(2, trace_bins=2048)
        assert "Fig. 2" in text

    def test_run_figure_3_tiny(self):
        from repro.experiments.runner import run_figure

        text = run_figure(3, trace_bins=2048)
        assert "Bellcore marginal" in text

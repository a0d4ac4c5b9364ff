"""Tests for the marginal summary statistics."""

from __future__ import annotations

import pytest

from repro.analysis.histogram import coefficient_of_variation, marginal_summary
from repro.core.marginal import DiscreteMarginal


class TestMarginalHelpers:
    def test_coefficient_of_variation(self):
        marginal = DiscreteMarginal(rates=[0.0, 2.0], probs=[0.5, 0.5])
        assert coefficient_of_variation(marginal) == pytest.approx(1.0)

    def test_cv_rejects_zero_mean(self):
        marginal = DiscreteMarginal(rates=[0.0], probs=[1.0])
        with pytest.raises(ValueError, match="positive"):
            coefficient_of_variation(marginal)

    def test_summary_keys(self):
        marginal = DiscreteMarginal(rates=[1.0, 2.0, 3.0], probs=[0.2, 0.5, 0.3])
        summary = marginal_summary(marginal)
        assert set(summary) == {"levels", "mean", "std", "cv", "min", "max", "peak_to_mean"}
        assert summary["levels"] == 3.0
        assert summary["mean"] == pytest.approx(marginal.mean)
        assert summary["peak_to_mean"] == pytest.approx(3.0 / marginal.mean)

"""Tests for the M/G/infinity session model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.truncated_pareto import TruncatedPareto
from repro.traffic.mginf import mginf_rates


@pytest.fixture
def duration_law() -> TruncatedPareto:
    # A finite cutoff keeps the residual life manageable so the warm-up
    # stationarization is accurate in tests.
    return TruncatedPareto.from_mean_interval(0.5, alpha=1.5, cutoff=20.0)


class TestRates:
    def test_shape_and_nonnegativity(self, duration_law, rng):
        rates = mginf_rates(
            arrival_rate=5.0, duration_law=duration_law, duration=50.0, bin_width=0.5, rng=rng
        )
        assert rates.shape == (100,)
        assert np.all(rates >= 0.0)

    def test_mean_matches_little(self, duration_law, rng):
        rates = mginf_rates(
            arrival_rate=10.0,
            duration_law=duration_law,
            duration=2000.0,
            bin_width=0.5,
            rng=rng,
            warmup_factor=100.0,
        )
        # Little's law: the mean number of active sessions is lambda E[D].
        assert rates.mean() == pytest.approx(10.0 * duration_law.mean, rel=0.1)

    def test_counts_are_integer_valued_for_aligned_sessions(self, rng):
        # With deterministic-ish very long sessions, per-bin counts stay near
        # the active-session count; just sanity-check boundedness.
        law = TruncatedPareto.from_mean_interval(5.0, alpha=1.9, cutoff=50.0)
        rates = mginf_rates(
            arrival_rate=1.0, duration_law=law, duration=100.0, bin_width=1.0, rng=rng
        )
        assert rates.max() < 100.0

    def test_rejects_short_window(self, duration_law, rng):
        with pytest.raises(ValueError, match="one bin"):
            mginf_rates(
                arrival_rate=1.0, duration_law=duration_law, duration=0.1, bin_width=0.5, rng=rng
            )

    def test_rejects_bad_rate(self, duration_law, rng):
        with pytest.raises(ValueError, match="arrival_rate"):
            mginf_rates(
                arrival_rate=0.0, duration_law=duration_law, duration=10.0, bin_width=0.5, rng=rng
            )

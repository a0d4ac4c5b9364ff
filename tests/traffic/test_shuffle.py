"""Tests for external block shuffling."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.acf import autocorrelation
from repro.traffic.shuffle import external_shuffle, shuffle_trace
from repro.traffic.trace import Trace


class TestExternalShuffle:
    def test_preserves_multiset(self, rng):
        values = np.arange(100.0)
        shuffled = external_shuffle(values, 7, rng)
        np.testing.assert_allclose(np.sort(shuffled), values)

    def test_preserves_intra_block_order(self, rng):
        values = np.arange(100.0)
        shuffled = external_shuffle(values, 10, rng)
        blocks = shuffled[:100].reshape(10, 10)
        for block in blocks:
            assert np.all(np.diff(block) == 1.0)  # consecutive integers

    def test_block_longer_than_series_is_identity(self, rng):
        values = np.arange(10.0)
        np.testing.assert_allclose(external_shuffle(values, 50, rng), values)

    def test_remainder_stays_at_end(self, rng):
        values = np.arange(23.0)
        shuffled = external_shuffle(values, 5, rng)
        np.testing.assert_allclose(shuffled[-3:], [20.0, 21.0, 22.0])

    def test_rejects_bad_block(self, rng):
        with pytest.raises(ValueError, match="block_length"):
            external_shuffle(np.arange(10.0), 0, rng)

    @given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=40, deadline=None)
    def test_multiset_invariant_property(self, block, seed):
        values = np.random.default_rng(1).normal(size=97)
        shuffled = external_shuffle(values, block, np.random.default_rng(seed))
        np.testing.assert_allclose(np.sort(shuffled), np.sort(values))



class TestShuffleTrace:
    def test_decorrelation_beyond_block(self, rng):
        # A strongly correlated series: slow sinusoid + noise.
        n = 8192
        t = np.arange(n)
        series = 5.0 + np.sin(2 * np.pi * t / 512.0) + 0.1 * rng.standard_normal(n)
        trace = Trace(rates=series, bin_width=0.01)
        shuffled = shuffle_trace(trace, cutoff_lag=0.16, rng=rng)  # 16-sample blocks
        long_lag = 512
        original = autocorrelation(trace.rates, long_lag)[long_lag]
        mixed = autocorrelation(shuffled.rates, long_lag)[long_lag]
        assert abs(mixed) < abs(original) / 3.0

    def test_short_lag_structure_survives(self, rng):
        n = 8192
        t = np.arange(n)
        series = 5.0 + np.sin(2 * np.pi * t / 64.0)
        trace = Trace(rates=series, bin_width=0.01)
        shuffled = shuffle_trace(trace, cutoff_lag=10.0, rng=rng)  # huge blocks
        lag = 8
        original = autocorrelation(trace.rates, lag)[lag]
        mixed = autocorrelation(shuffled.rates, lag)[lag]
        assert mixed == pytest.approx(original, abs=0.1)

    def test_preserves_mean_and_length(self, mtv_trace_small, rng):
        shuffled = shuffle_trace(mtv_trace_small, cutoff_lag=1.0, rng=rng)
        assert shuffled.n_bins == mtv_trace_small.n_bins
        assert shuffled.mean_rate == pytest.approx(mtv_trace_small.mean_rate)
        assert shuffled.bin_width == mtv_trace_small.bin_width

    def test_rejects_nonpositive_lag(self, mtv_trace_small, rng):
        with pytest.raises(ValueError, match="cutoff_lag"):
            shuffle_trace(mtv_trace_small, cutoff_lag=0.0, rng=rng)

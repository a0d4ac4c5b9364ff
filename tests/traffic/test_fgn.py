"""Tests for the Davies-Harte fGn generator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.acf import autocovariance
from repro.traffic.fgn import (
    fgn_autocovariance,
    generate_fgn,
    sample_stationary_gaussian,
)


class TestAutocovariance:
    def test_lag_zero_is_unit_variance(self):
        gamma = fgn_autocovariance(0.7, 10)
        assert gamma[0] == pytest.approx(1.0)

    def test_half_is_white_noise(self):
        gamma = fgn_autocovariance(0.5, 10)
        np.testing.assert_allclose(gamma[1:], 0.0, atol=1e-12)

    def test_persistent_for_high_hurst(self):
        gamma = fgn_autocovariance(0.9, 100)
        assert np.all(gamma > 0.0)
        assert np.all(np.diff(gamma[1:]) < 0.0)  # decreasing

    def test_antipersistent_for_low_hurst(self):
        gamma = fgn_autocovariance(0.3, 10)
        assert gamma[1] < 0.0

    def test_power_law_tail(self):
        hurst = 0.8
        gamma = fgn_autocovariance(hurst, 4000)
        # gamma(k) ~ H(2H-1) k^{2H-2} for large k.
        k = 2000
        expected = hurst * (2 * hurst - 1) * k ** (2 * hurst - 2)
        assert gamma[k] == pytest.approx(expected, rel=0.01)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="hurst"):
            fgn_autocovariance(1.0, 10)
        with pytest.raises(ValueError, match="lags"):
            fgn_autocovariance(0.7, 0)


class TestSampler:
    def test_moments(self, rng):
        path = generate_fgn(65536, 0.8, rng, mean=3.0, std=2.0)
        assert path.mean() == pytest.approx(3.0, abs=0.5)  # LRD -> slow mean convergence
        assert path.std() == pytest.approx(2.0, rel=0.1)

    def test_white_noise_case(self, rng):
        path = generate_fgn(16384, 0.5, rng)
        acf = autocovariance(path, 5)
        assert acf[0] == pytest.approx(1.0, rel=0.05)
        assert abs(acf[1]) < 0.05

    def test_empirical_acf_matches_theory(self, rng):
        hurst = 0.75
        path = generate_fgn(65536, hurst, rng)
        empirical = autocovariance(path, 3)
        theory = fgn_autocovariance(hurst, 4)
        np.testing.assert_allclose(empirical, theory, atol=0.05)

    def test_deterministic_given_rng(self):
        a = generate_fgn(256, 0.7, np.random.default_rng(5))
        b = generate_fgn(256, 0.7, np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)

    def test_rejects_short_length(self, rng):
        with pytest.raises(ValueError, match="length"):
            generate_fgn(1, 0.7, rng)

    def test_rejects_bad_std(self, rng):
        with pytest.raises(ValueError, match="std"):
            generate_fgn(64, 0.7, rng, std=0.0)

    def test_generic_sampler_rejects_indefinite(self, rng):
        # A covariance that is not non-negative definite must raise.
        bad = np.array([1.0, 0.99, -0.99, 0.99])
        with pytest.raises(ValueError, match="non-negative definite"):
            sample_stationary_gaussian(bad, rng)

    def test_generic_sampler_exponential_acf(self, rng):
        # AR(1)-like covariance: rho^k is a valid acvf.
        rho = 0.6
        gamma = rho ** np.arange(8192)
        path = sample_stationary_gaussian(gamma, rng)
        empirical = autocovariance(path, 3)
        assert empirical[1] / empirical[0] == pytest.approx(rho, abs=0.05)

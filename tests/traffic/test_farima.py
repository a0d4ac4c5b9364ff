"""Tests for the FARIMA(0, d, 0) generator."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.analysis.acf import autocovariance
from repro.traffic.farima import d_from_hurst, farima_autocovariance, generate_farima


class TestAutocovariance:
    def test_lag_zero_closed_form(self):
        d = 0.3
        gamma = farima_autocovariance(d, 5)
        expected = math.gamma(1 - 2 * d) / math.gamma(1 - d) ** 2
        assert gamma[0] == pytest.approx(expected)

    def test_ratio_recursion(self):
        d = 0.2
        gamma = farima_autocovariance(d, 10)
        for k in range(1, 10):
            assert gamma[k] / gamma[k - 1] == pytest.approx((k - 1 + d) / (k - d))

    def test_d_zero_limit_is_white(self):
        gamma = farima_autocovariance(1e-9, 5)
        assert gamma[0] == pytest.approx(1.0, rel=1e-6)
        assert abs(gamma[1]) < 1e-6

    def test_negative_d_alternates(self):
        gamma = farima_autocovariance(-0.3, 3)
        assert gamma[1] < 0.0

    def test_power_law_tail(self):
        d = 0.35
        gamma = farima_autocovariance(d, 8000)
        k = 4000
        ratio = gamma[k] / gamma[k // 2]
        assert ratio == pytest.approx(2.0 ** (2 * d - 1), rel=0.01)

    def test_innovation_variance_scales(self):
        base = farima_autocovariance(0.2, 4)
        scaled = farima_autocovariance(0.2, 4, innovation_variance=4.0)
        np.testing.assert_allclose(scaled, 4.0 * base)

    def test_rejects_bad_d(self):
        with pytest.raises(ValueError, match="d"):
            farima_autocovariance(0.5, 5)


class TestGenerator:
    def test_normalized_moments(self, rng):
        path = generate_farima(32768, 0.3, rng, mean=1.0, std=0.5)
        assert path.std() == pytest.approx(0.5, rel=0.1)

    def test_acf_matches_theory(self, rng):
        d = 0.25
        path = generate_farima(65536, d, rng)
        empirical = autocovariance(path, 2)
        theory = farima_autocovariance(d, 3)
        np.testing.assert_allclose(
            empirical / empirical[0], theory / theory[0], atol=0.05
        )

    def test_rejects_short(self, rng):
        with pytest.raises(ValueError, match="length"):
            generate_farima(1, 0.3, rng)


class TestHurstMapping:
    def test_d_is_hurst_minus_half(self):
        assert d_from_hurst(0.8) == pytest.approx(0.3)
        assert d_from_hurst(0.67) == pytest.approx(0.17)

    def test_bounds(self):
        with pytest.raises(ValueError):
            d_from_hurst(1.0)

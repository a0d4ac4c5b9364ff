"""Unit and property tests for the truncated Pareto interarrival law."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from repro.core.truncated_pareto import TruncatedPareto

LAW = TruncatedPareto(theta=0.1, alpha=1.4, cutoff=5.0)
INFINITE = TruncatedPareto(theta=0.1, alpha=1.4)

law_params = st.tuples(
    st.floats(min_value=1e-3, max_value=10.0),  # theta
    st.floats(min_value=1.01, max_value=1.99),  # alpha
    st.one_of(st.floats(min_value=1e-2, max_value=1e3), st.just(math.inf)),  # cutoff
)


class TestConstruction:
    def test_rejects_nonpositive_theta(self):
        with pytest.raises(ValueError, match="theta"):
            TruncatedPareto(theta=0.0, alpha=1.5)

    def test_rejects_alpha_at_one(self):
        with pytest.raises(ValueError, match="alpha"):
            TruncatedPareto(theta=1.0, alpha=1.0)

    def test_rejects_alpha_at_two(self):
        with pytest.raises(ValueError, match="alpha"):
            TruncatedPareto(theta=1.0, alpha=2.0)

    def test_rejects_negative_cutoff(self):
        with pytest.raises(ValueError, match="cutoff"):
            TruncatedPareto(theta=1.0, alpha=1.5, cutoff=-1.0)

    def test_infinite_cutoff_allowed(self):
        assert INFINITE.cutoff == math.inf

    def test_from_hurst_mapping(self):
        law = TruncatedPareto.from_hurst(hurst=0.8, theta=0.1)
        assert law.alpha == pytest.approx(1.4)
        assert law.hurst == pytest.approx(0.8)

    def test_from_hurst_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="hurst"):
            TruncatedPareto.from_hurst(hurst=0.5, theta=0.1)

    def test_with_cutoff_preserves_shape(self):
        truncated = INFINITE.with_cutoff(2.0)
        assert truncated.theta == INFINITE.theta
        assert truncated.alpha == INFINITE.alpha
        assert truncated.cutoff == 2.0


class TestMoments:
    def test_mean_matches_eq25_at_infinity(self):
        # E[T] = theta / (alpha - 1) for T_c = inf.
        assert INFINITE.mean == pytest.approx(0.1 / 0.4)

    def test_mean_matches_numeric_integration(self):
        numeric, _ = integrate.quad(lambda t: float(LAW.sf(t)), 0.0, LAW.cutoff)
        assert LAW.mean == pytest.approx(numeric, rel=1e-8)

    def test_second_moment_matches_numeric_integration(self):
        numeric, _ = integrate.quad(lambda t: 2.0 * t * float(LAW.sf(t)), 0.0, LAW.cutoff)
        assert LAW.second_moment == pytest.approx(numeric, rel=1e-8)

    def test_variance_consistency(self):
        assert LAW.variance == pytest.approx(LAW.second_moment - LAW.mean**2)
        assert LAW.std == pytest.approx(math.sqrt(LAW.variance))

    def test_infinite_cutoff_has_infinite_variance(self):
        assert INFINITE.second_moment == math.inf
        assert INFINITE.variance == math.inf
        assert INFINITE.std == math.inf

    def test_truncation_reduces_mean(self):
        assert LAW.mean < INFINITE.mean

    @given(law_params)
    @settings(max_examples=50, deadline=None)
    def test_mean_positive_and_below_cutoff(self, params):
        theta, alpha, cutoff = params
        law = TruncatedPareto(theta=theta, alpha=alpha, cutoff=cutoff)
        assert law.mean > 0.0
        if cutoff != math.inf:
            assert law.mean < cutoff


class TestCalibration:
    def test_from_mean_interval_infinity(self):
        law = TruncatedPareto.from_mean_interval(mean_interval=0.08, alpha=1.34)
        assert law.mean == pytest.approx(0.08)
        assert law.theta == pytest.approx(0.08 * 0.34)

    def test_paper_calibration_uses_infinite_cutoff_theta(self):
        # The paper fixes theta from T_c = inf even for finite cutoffs.
        law = TruncatedPareto.from_mean_interval(mean_interval=0.08, alpha=1.34, cutoff=2.0)
        assert law.theta == pytest.approx(0.08 * 0.34)
        assert law.mean < 0.08  # finite cutoff shortens the mean

    def test_exact_calibration_at_finite_cutoff(self):
        law = TruncatedPareto.from_mean_interval(
            mean_interval=0.08, alpha=1.34, cutoff=2.0, calibrate_at_infinity=False
        )
        assert law.mean == pytest.approx(0.08, rel=1e-6)

    def test_exact_calibration_rejects_unreachable_mean(self):
        with pytest.raises(ValueError, match="mean_interval"):
            TruncatedPareto.from_mean_interval(
                mean_interval=3.0, alpha=1.5, cutoff=2.0, calibrate_at_infinity=False
            )

    def test_from_hurst_and_mean_interval(self):
        law = TruncatedPareto.from_hurst_and_mean_interval(hurst=0.83, mean_interval=0.08)
        assert law.alpha == pytest.approx(3.0 - 2.0 * 0.83)
        assert law.mean == pytest.approx(0.08)


class TestDistributionFunctions:
    def test_sf_at_zero_is_one(self):
        assert LAW.sf(0.0) == pytest.approx(1.0)

    def test_sf_is_zero_at_and_beyond_cutoff(self):
        assert LAW.sf(LAW.cutoff) == 0.0
        assert LAW.sf(LAW.cutoff + 1.0) == 0.0

    def test_sf_matches_eq6_inside_support(self):
        t = 0.7
        assert LAW.sf(t) == pytest.approx(((t + 0.1) / 0.1) ** (-1.4))

    def test_atom_mass(self):
        expected = ((5.0 + 0.1) / 0.1) ** (-1.4)
        assert LAW.atom_at_cutoff == pytest.approx(expected)
        assert INFINITE.atom_at_cutoff == 0.0

    def test_sf_inclusive_differs_only_at_cutoff(self):
        assert LAW.sf_inclusive(LAW.cutoff) == pytest.approx(LAW.atom_at_cutoff)
        assert LAW.sf_inclusive(1.0) == pytest.approx(LAW.sf(1.0))

    def test_cdf_left_excludes_atom(self):
        assert LAW.cdf(LAW.cutoff) == pytest.approx(1.0)
        assert LAW.cdf_left(LAW.cutoff) == pytest.approx(1.0 - LAW.atom_at_cutoff)

    def test_cdf_monotone_on_array(self):
        t = np.linspace(-1.0, 6.0, 200)
        cdf = np.asarray(LAW.cdf(t))
        assert np.all(np.diff(cdf) >= -1e-12)
        assert cdf[0] == 0.0
        assert cdf[-1] == pytest.approx(1.0)

    def test_pdf_integrates_to_continuous_mass(self):
        numeric, _ = integrate.quad(lambda t: float(LAW.pdf(t)), 0.0, LAW.cutoff, limit=200)
        assert numeric == pytest.approx(1.0 - LAW.atom_at_cutoff, rel=1e-6)

    def test_pdf_zero_outside_support(self):
        assert LAW.pdf(-0.5) == 0.0
        assert LAW.pdf(LAW.cutoff + 0.1) == 0.0

    def test_residual_sf_boundaries(self):
        assert LAW.residual_sf(0.0) == pytest.approx(1.0)
        assert LAW.residual_sf(LAW.cutoff) == 0.0

    def test_residual_sf_matches_renewal_integral(self):
        # Eq. 5: Pr{tau_res >= t} = int_t^inf sf(x) dx / E[T].
        t = 1.3
        numeric, _ = integrate.quad(lambda x: float(LAW.sf(x)), t, LAW.cutoff)
        assert LAW.residual_sf(t) == pytest.approx(numeric / LAW.mean, rel=1e-8)

    def test_residual_sf_infinite_cutoff_power_law(self):
        t = 2.0
        expected = ((t + 0.1) / 0.1) ** (1.0 - 1.4)
        assert INFINITE.residual_sf(t) == pytest.approx(expected)

    @given(law_params, st.floats(min_value=0.0, max_value=100.0))
    @settings(max_examples=80, deadline=None)
    def test_sf_bounds_and_order(self, params, t):
        theta, alpha, cutoff = params
        law = TruncatedPareto(theta=theta, alpha=alpha, cutoff=cutoff)
        sf = float(law.sf(t))
        sf_inc = float(law.sf_inclusive(t))
        assert 0.0 <= sf <= sf_inc <= 1.0
        assert float(law.cdf(t)) == pytest.approx(1.0 - sf)
        assert float(law.cdf_left(t)) == pytest.approx(1.0 - sf_inc)


class TestSamplingAndQuantiles:
    def test_samples_respect_cutoff(self):
        rng = np.random.default_rng(0)
        samples = LAW.sample(20_000, rng)
        assert samples.min() >= 0.0
        assert samples.max() <= LAW.cutoff

    def test_sample_mean_matches_analytic(self):
        rng = np.random.default_rng(1)
        samples = LAW.sample(200_000, rng)
        assert samples.mean() == pytest.approx(LAW.mean, rel=0.02)

    def test_sample_atom_frequency(self):
        rng = np.random.default_rng(2)
        samples = LAW.sample(200_000, rng)
        frequency = np.mean(samples == LAW.cutoff)
        assert frequency == pytest.approx(LAW.atom_at_cutoff, rel=0.15)

    def test_sample_zero_size(self):
        rng = np.random.default_rng(3)
        assert LAW.sample(0, rng).size == 0

    @pytest.mark.parametrize("law", [LAW, INFINITE], ids=["cutoff", "infinite"])
    def test_sample_bits_match_the_quantile_expression(self, law):
        # The in-place transform reproduces the one-line expression bit for bit.
        u = np.random.default_rng(5).random(10_000)
        expected = law.theta * ((1.0 - u) ** (-1.0 / law.alpha) - 1.0)
        if law.cutoff != math.inf:
            expected = np.minimum(expected, law.cutoff)
        assert np.array_equal(law.sample(10_000, np.random.default_rng(5)), expected)

    def test_sample_negative_size_rejected(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError, match="size"):
            LAW.sample(-1, rng)

    def test_quantile_inverts_cdf(self):
        for q in (0.1, 0.5, 0.9):
            t = float(LAW.quantile(q))
            assert float(LAW.cdf(t)) == pytest.approx(q, abs=1e-9)

    def test_quantile_above_atom_maps_to_cutoff(self):
        q = 1.0 - LAW.atom_at_cutoff / 2.0
        assert float(LAW.quantile(q)) == LAW.cutoff

    def test_quantile_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="quantile"):
            LAW.quantile(1.5)

    @given(st.floats(min_value=0.0, max_value=0.999))
    @settings(max_examples=50, deadline=None)
    def test_quantile_monotone(self, q):
        lower = float(LAW.quantile(q))
        upper = float(LAW.quantile(min(q + 1e-3, 1.0)))
        assert lower <= upper

"""Tests for hyperexponential fitting and the Markov source constructions."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.source import CutoffFluidSource
from repro.core.truncated_pareto import TruncatedPareto
from repro.queueing.markov import (
    HyperexponentialFit,
    _superpose_onoff_chains,
    fit_hyperexponential,
    fit_multiscale_source,
)
from repro.traffic import MarkovModulatedSource


@pytest.fixture
def target_law() -> TruncatedPareto:
    return TruncatedPareto(theta=0.02, alpha=1.2, cutoff=50.0)


class TestHyperexponentialFit:
    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            HyperexponentialFit(weights=np.array([1.0]), exit_rates=np.array([0.0]))
        with pytest.raises(ValueError, match="sum to one"):
            HyperexponentialFit(weights=np.array([0.5, 0.4]), exit_rates=np.array([1.0, 2.0]))

    def test_sf_and_mean(self):
        fit = HyperexponentialFit(
            weights=np.array([0.5, 0.5]), exit_rates=np.array([1.0, 10.0])
        )
        assert float(fit.sf(0.0)) == pytest.approx(1.0)
        assert fit.mean == pytest.approx(0.5 + 0.05)

    def test_residual_sf_decreasing(self):
        fit = HyperexponentialFit(
            weights=np.array([0.3, 0.7]), exit_rates=np.array([0.5, 5.0])
        )
        t = np.linspace(0.0, 10.0, 50)
        values = np.asarray(fit.residual_sf(t))
        assert values[0] == pytest.approx(1.0)
        assert np.all(np.diff(values) <= 1e-12)

    def test_fw_fit_accuracy(self, target_law):
        fit = fit_hyperexponential(target_law, phases=10)
        ts = np.logspace(-3, 1.5, 40)
        target = np.asarray(target_law.sf(ts))
        fitted = np.asarray(fit.sf(ts))
        relative = np.abs(fitted - target) / np.maximum(target, 1e-12)
        assert float(relative.max()) < 0.12

    def test_fw_fit_mean_close(self, target_law):
        fit = fit_hyperexponential(target_law, phases=10)
        assert fit.mean == pytest.approx(target_law.mean, rel=0.1)

    def test_weights_normalized_and_sorted(self, target_law):
        fit = fit_hyperexponential(target_law, phases=8)
        assert fit.weights.sum() == pytest.approx(1.0)
        assert np.all(np.diff(fit.exit_rates) <= 0.0)  # fast phases first

    def test_rejects_bad_phase_count(self, target_law):
        with pytest.raises(ValueError, match="phases"):
            fit_hyperexponential(target_law, phases=0)

    def test_sample_draws_phases_then_unit_exponentials(self, target_law):
        fit = fit_hyperexponential(target_law, phases=6)
        drawn = fit.sample(500, np.random.default_rng(5))
        replay = np.random.default_rng(5)
        phase = replay.choice(fit.phases, size=500, p=fit.weights)
        np.testing.assert_array_equal(
            drawn, replay.exponential(size=500) / fit.exit_rates[phase]
        )

    def test_sample_mean_matches(self, target_law):
        fit = fit_hyperexponential(target_law, phases=6)
        drawn = fit.sample(200_000, np.random.default_rng(6))
        assert float(drawn.mean()) == pytest.approx(fit.mean, rel=0.05)

    def test_copies_its_arrays(self):
        weights, exit_rates = np.array([0.5, 0.5]), np.array([2.0, 1.0])
        fit = HyperexponentialFit(weights=weights, exit_rates=exit_rates)
        weights[0] = 0.9
        assert weights.flags.writeable and fit.weights[0] == 0.5
        assert not fit.weights.flags.writeable


def _model(marginal, law, phases):
    return MarkovModulatedSource(
        marginal=marginal, interarrival=fit_hyperexponential(law, phases=phases)
    ).fluid_model()


class TestRenewalMarkovSource:
    def test_state_space_size(self, target_law, three_level_marginal):
        model = _model(three_level_marginal, target_law, 6)
        assert model.size == 3 * fit_hyperexponential(target_law, phases=6).phases

    def test_mean_rate_matches_marginal(self, target_law, three_level_marginal):
        model = _model(three_level_marginal, target_law, 6)
        assert model.mean_rate == pytest.approx(three_level_marginal.mean, rel=1e-6)

    def test_covariance_approximates_cutoff_model(self, target_law, onoff_marginal):
        model = _model(onoff_marginal, target_law, 10)
        source = CutoffFluidSource(marginal=onoff_marginal, interarrival=target_law)
        lags = np.array([0.05, 0.2, 1.0, 5.0])
        markov_cov = model.rate_autocovariance(lags)
        exact_cov = np.asarray(source.autocovariance(lags))
        np.testing.assert_allclose(markov_cov, exact_cov, atol=0.06)

    def test_generator_rows_sum_to_zero(self, target_law, onoff_marginal):
        model = _model(onoff_marginal, target_law, 4)
        np.testing.assert_allclose(model.generator.sum(axis=1), 0.0, atol=1e-10)

    def test_generator_is_the_renewal_chain(self, target_law, three_level_marginal):
        # State (i, m) leaves at nu_m and lands on (j, m') with probability
        # pi_j w_m'; a jump back onto itself is folded into the diagonal.
        fit = fit_hyperexponential(target_law, phases=5)
        model = MarkovModulatedSource(
            marginal=three_level_marginal, interarrival=fit
        ).fluid_model()
        probs, rates = three_level_marginal.probs, three_level_marginal.rates
        size = three_level_marginal.size * fit.phases
        expected = np.empty((size, size))
        for i in range(three_level_marginal.size):
            for m in range(fit.phases):
                for j in range(three_level_marginal.size):
                    for k in range(fit.phases):
                        expected[i * fit.phases + m, j * fit.phases + k] = (
                            fit.exit_rates[m] * (probs[j] * fit.weights[k])
                        )
                expected[i * fit.phases + m, i * fit.phases + m] -= fit.exit_rates[m]
        np.testing.assert_array_equal(model.generator, expected)
        np.testing.assert_array_equal(model.rates, np.repeat(rates, fit.phases))


class TestFitMultiscaleSource:
    def test_mean_matched_exactly(self, small_source):
        model = fit_multiscale_source(small_source)
        assert model.mean_rate == pytest.approx(small_source.mean_rate, rel=1e-6)

    def test_covariance_matched(self, small_source):
        model = fit_multiscale_source(small_source)
        lags = np.array([0.05, 0.2, 1.0, 3.0])
        fitted = model.rate_autocovariance(lags)
        exact = np.asarray(small_source.autocovariance(lags))
        np.testing.assert_allclose(fitted, exact, atol=0.06 * small_source.rate_variance)

    def test_loss_close_to_reference(self, small_source):
        from repro.core.solver import FluidQueue, SolverConfig
        from repro.queueing.mmfq import mmfq_loss_rate

        model = fit_multiscale_source(small_source)
        reference = FluidQueue(
            source=small_source, service_rate=1.25, buffer_size=1.0
        ).loss_rate(SolverConfig(relative_gap=0.05)).estimate
        fitted = mmfq_loss_rate(model, 1.25, 1.0)
        assert fitted == pytest.approx(reference, rel=0.5)

    def test_rejects_wrong_type(self):
        with pytest.raises(TypeError, match="CutoffFluidSource"):
            fit_multiscale_source("not a source")

    def test_rare_peak_shrinks_into_the_mean(self):
        # A coefficient of variation near 100 drives the ON probability to
        # its 1e-4 floor; the peaks then shrink so the base rate is 0 and
        # the mean still matches.
        from repro.core.marginal import DiscreteMarginal

        source = CutoffFluidSource(
            marginal=DiscreteMarginal.two_state(low=0.0, high=1.0, prob_high=1e-4),
            interarrival=TruncatedPareto(theta=0.1, alpha=1.4, cutoff=10.0),
        )
        model = fit_multiscale_source(source)
        assert model.rates.min() == 0.0
        assert model.mean_rate == pytest.approx(source.mean_rate, rel=1e-6)


class TestMultiscaleOnOff:
    """The Kronecker builder behind :func:`fit_multiscale_source`."""

    def test_state_count(self):
        model = _superpose_onoff_chains([0.1, 0.4, 1.6], [1.0] * 3, 0.5, 0.0)
        assert model.size == 8

    def test_mean_rate(self):
        model = _superpose_onoff_chains([0.1, 0.4, 1.6], [1.0] * 3, 0.5, 0.0)
        assert model.mean_rate == pytest.approx(3 * 1.0 * 0.5, rel=1e-8)

    def test_covariance_is_sum_of_exponentials(self):
        model = _superpose_onoff_chains([0.1, 0.4, 1.6], [1.0] * 3, 0.5, 0.0)
        lags = np.array([0.0, 0.1, 0.4, 1.6])
        cov = model.rate_autocovariance(lags)
        per_chain_var = 0.25  # p(1-p) * rate^2
        expected = sum(
            per_chain_var * np.exp(-lags / (0.1 * 4.0**j)) for j in range(3)
        )
        np.testing.assert_allclose(cov, expected, rtol=1e-6, atol=1e-9)

    def test_pseudo_power_law_span(self):
        # Six geometrically spaced scales give a positive covariance that
        # decays monotonically across the covered range.
        model = _superpose_onoff_chains([0.01 * 4.0**j for j in range(6)], [1.0] * 6, 0.5, 0.0)
        lags = np.logspace(-2, 1, 20)
        cov = model.rate_autocovariance(lags)
        assert np.all(cov > 0.0)
        assert np.all(np.diff(cov) < 0.0)

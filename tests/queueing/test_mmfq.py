"""Tests for the Markov-modulated fluid queue spectral solver."""

from __future__ import annotations

import numpy as np
import pytest

from repro.queueing.fluid_sim import simulate_trace_queue
from repro.queueing.mmfq import MarkovFluidModel, mmfq_loss_rate


@pytest.fixture
def onoff_model() -> MarkovFluidModel:
    # off -> on at rate 1, on -> off at rate 2; peak rate 3.
    generator = np.array([[-1.0, 1.0], [2.0, -2.0]])
    return MarkovFluidModel(generator=generator, rates=np.array([0.0, 3.0]))


class TestModel:
    def test_stationary_distribution(self, onoff_model):
        np.testing.assert_allclose(onoff_model.stationary(), [2.0 / 3.0, 1.0 / 3.0])
        assert onoff_model.mean_rate == pytest.approx(1.0)

    def test_generator_validation(self):
        with pytest.raises(ValueError, match="square"):
            MarkovFluidModel(generator=np.zeros((2, 3)), rates=np.zeros(2))
        with pytest.raises(ValueError, match="sum to zero"):
            MarkovFluidModel(generator=np.array([[-1.0, 0.5], [1.0, -1.0]]), rates=np.zeros(2))
        with pytest.raises(ValueError, match="off-diagonal"):
            MarkovFluidModel(
                generator=np.array([[1.0, -1.0], [1.0, -1.0]]), rates=np.zeros(2)
            )
        with pytest.raises(ValueError, match="non-negative"):
            MarkovFluidModel(
                generator=np.array([[-1.0, 1.0], [1.0, -1.0]]), rates=np.array([-1.0, 1.0])
            )

    def test_rate_autocovariance_exponential(self, onoff_model):
        # Two-state chain: phi(t) = var * exp(-(a+b) t).
        lags = np.array([0.0, 0.5, 1.0])
        cov = onoff_model.rate_autocovariance(lags)
        variance = (2.0 / 3.0) * (1.0 / 3.0) * 9.0
        np.testing.assert_allclose(cov, variance * np.exp(-3.0 * lags), rtol=1e-8)

    def test_simulate_rates_statistics(self, onoff_model, rng):
        trace = onoff_model.simulate_rates(duration=5000.0, bin_width=0.1, rng=rng)
        assert trace.mean() == pytest.approx(1.0, rel=0.1)
        assert trace.max() <= 3.0 + 1e-9


class TestLossRate:
    def test_matches_simulation(self, onoff_model, rng):
        c, b = 1.5, 2.0
        analytic = mmfq_loss_rate(onoff_model, c, b)
        trace = onoff_model.simulate_rates(duration=50_000.0, bin_width=0.02, rng=rng)
        simulated = simulate_trace_queue(trace, 0.02, c, b).loss_rate
        assert analytic == pytest.approx(simulated, rel=0.1)

    def test_loss_decreasing_in_buffer(self, onoff_model):
        losses = [mmfq_loss_rate(onoff_model, 1.5, b) for b in (0.1, 1.0, 4.0)]
        assert losses[0] > losses[1] > losses[2] >= 0.0

    def test_zero_buffer_closed_form(self, onoff_model):
        loss = mmfq_loss_rate(onoff_model, 1.5, 0.0)
        # l = pi_on (r - c) / mean = (1/3)(1.5)/1.
        assert loss == pytest.approx(0.5)

    def test_all_down_states_no_loss(self):
        generator = np.array([[-1.0, 1.0], [1.0, -1.0]])
        model = MarkovFluidModel(generator=generator, rates=np.array([0.0, 0.5]))
        assert mmfq_loss_rate(model, 1.0, 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_three_state_birth_death(self, rng):
        generator = np.array(
            [[-1.0, 1.0, 0.0], [0.5, -1.5, 1.0], [0.0, 1.0, -1.0]]
        )
        model = MarkovFluidModel(generator=generator, rates=np.array([0.0, 1.0, 3.0]))
        c, b = 1.4, 1.5
        analytic = mmfq_loss_rate(model, c, b)
        trace = model.simulate_rates(duration=50_000.0, bin_width=0.02, rng=rng)
        simulated = simulate_trace_queue(trace, 0.02, c, b).loss_rate
        assert analytic == pytest.approx(simulated, rel=0.12)

    def test_rate_equal_to_service_nudged(self, onoff_model):
        model = MarkovFluidModel(
            generator=onoff_model.generator, rates=np.array([0.0, 1.5])
        )
        loss = mmfq_loss_rate(model, 1.5, 1.0)
        assert loss == pytest.approx(0.0, abs=1e-6)


class TestInfiniteBufferOverflow:
    def test_matches_simulation(self, onoff_model, rng):
        from repro.queueing.mmfq import mmfq_overflow_probability

        c = 1.5
        levels = np.array([0.5, 1.0, 2.0, 4.0])
        analytic = mmfq_overflow_probability(onoff_model, c, levels)
        trace = onoff_model.simulate_rates(duration=100_000.0, bin_width=0.05, rng=rng)
        occupancy = 0.0
        exceed = np.zeros(levels.size)
        for rate in trace:
            occupancy = max(0.0, occupancy + (rate - c) * 0.05)
            exceed += occupancy > levels
        empirical = exceed / trace.size
        np.testing.assert_allclose(analytic, empirical, atol=0.02)

    def test_exponential_tail_for_two_states(self, onoff_model):
        from repro.queueing.mmfq import mmfq_overflow_probability

        levels = np.array([1.0, 2.0, 3.0])
        p = mmfq_overflow_probability(onoff_model, 1.5, levels)
        # Two-state AMS: single stable mode, exactly geometric decay.
        assert p[1] / p[0] == pytest.approx(p[2] / p[1], rel=1e-6)

    def test_dominates_finite_buffer_atom(self, onoff_model):
        from repro.queueing.mmfq import mmfq_loss_rate, mmfq_overflow_probability

        c, b = 1.5, 1.5
        overflow = float(mmfq_overflow_probability(onoff_model, c, np.array([b]))[0])
        loss = mmfq_loss_rate(onoff_model, c, b)
        # Footnote 2: overflow probability upper-bounds the loss rate (the
        # loss also carries a (r-c)/mean factor < 1 here).
        assert overflow >= loss

    def test_requires_stability(self, onoff_model):
        from repro.queueing.mmfq import mmfq_overflow_probability

        with pytest.raises(ValueError, match="utilization"):
            mmfq_overflow_probability(onoff_model, 0.9, np.array([1.0]))


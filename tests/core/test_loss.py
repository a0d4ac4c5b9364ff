"""Tests for the closed-form expected overflow E[W_l | Q = x] (Eqs. 13-15)."""

from __future__ import annotations


import numpy as np
import pytest

from repro.core.loss import expected_overflow, zero_buffer_loss_rate
from repro.core.source import CutoffFluidSource
from repro.core.truncated_pareto import TruncatedPareto


def _monte_carlo_overflow(source, service_rate, buffer_size, occupancy, rng, n=400_000):
    durations = source.interarrival.sample(n, rng)
    rates = source.marginal.sample(n, rng)
    w = durations * (rates - service_rate)
    return float(np.maximum(w - (buffer_size - occupancy), 0.0).mean())


class TestExpectedOverflow:
    def test_matches_monte_carlo(self, small_source, rng):
        for occupancy in (0.0, 0.4, 0.8):
            analytic = float(
                expected_overflow(
                    small_source, service_rate=1.25, buffer_size=1.0, occupancy=occupancy
                )
            )
            empirical = _monte_carlo_overflow(small_source, 1.25, 1.0, occupancy, rng)
            assert analytic == pytest.approx(empirical, rel=0.05)

    def test_matches_monte_carlo_infinite_cutoff(self, onoff_marginal, rng):
        source = CutoffFluidSource(
            marginal=onoff_marginal, interarrival=TruncatedPareto(theta=0.1, alpha=1.4)
        )
        analytic = float(
            expected_overflow(source, service_rate=1.25, buffer_size=0.5, occupancy=0.25)
        )
        empirical = _monte_carlo_overflow(source, 1.25, 0.5, 0.25, rng)
        assert analytic == pytest.approx(empirical, rel=0.05)

    def test_increasing_in_occupancy(self, small_source):
        x = np.linspace(0.0, 1.0, 50)
        values = np.asarray(
            expected_overflow(small_source, service_rate=1.25, buffer_size=1.0, occupancy=x)
        )
        assert np.all(np.diff(values) >= -1e-15)

    def test_zero_when_no_up_states(self, small_source):
        # Service faster than the peak rate: nothing can overflow.
        value = expected_overflow(small_source, service_rate=3.0, buffer_size=1.0, occupancy=0.5)
        assert float(value) == 0.0

    def test_full_buffer_occupancy_consistency(self, small_source):
        # At x = B the loss per interval is E[W^+].
        value = float(
            expected_overflow(small_source, service_rate=1.25, buffer_size=1.0, occupancy=1.0)
        )
        law = small_source.interarrival
        # E[(T (2 - 1.25))^+] = 0.75 E[T] * pi_high
        expected = 0.5 * 0.75 * law.mean
        assert value == pytest.approx(expected, rel=1e-9)

    def test_feasibility_condition_excludes_states(self, small_source):
        # If even a maximal interval cannot overflow the headroom, the
        # expected overflow is exactly zero.
        cutoff = small_source.cutoff
        big_buffer = cutoff * (2.0 - 1.25) + 1.0
        value = expected_overflow(
            small_source, service_rate=1.25, buffer_size=big_buffer, occupancy=0.0
        )
        assert float(value) == 0.0

    def test_rejects_occupancy_outside_buffer(self, small_source):
        with pytest.raises(ValueError, match="occupancy"):
            expected_overflow(small_source, service_rate=1.25, buffer_size=1.0, occupancy=1.5)

    def test_vector_occupancy_shape(self, small_source):
        x = np.linspace(0.0, 1.0, 7)
        values = expected_overflow(small_source, service_rate=1.25, buffer_size=1.0, occupancy=x)
        assert np.asarray(values).shape == (7,)


class TestLossRateAssembly:
    def test_zero_buffer_closed_form(self, small_source):
        # l = E[(lambda - c)^+] / mean_rate.
        loss = zero_buffer_loss_rate(small_source, service_rate=1.25)
        assert loss == pytest.approx(0.5 * 0.75 / 1.0)

    def test_zero_buffer_equals_overflow_formula(self, multi_source):
        c = 1.3
        via_overflow = float(
            expected_overflow(multi_source, service_rate=c, buffer_size=0.0, occupancy=0.0)
        ) / (multi_source.mean_rate * multi_source.mean_interval)
        assert zero_buffer_loss_rate(multi_source, c) == pytest.approx(via_overflow, rel=1e-9)

    def test_zero_buffer_zero_when_service_dominates(self, small_source):
        assert zero_buffer_loss_rate(small_source, service_rate=2.5) == 0.0

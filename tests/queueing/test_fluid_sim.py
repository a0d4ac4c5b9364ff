"""Tests for the trace-driven and event-driven queue simulators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.queueing.fluid_sim import (
    simulate_source_queue,
    simulate_trace_queue,
    simulate_trace_queue_multi,
)


class TestTraceQueue:
    def test_no_loss_when_service_dominates(self):
        rates = np.array([1.0, 2.0, 1.5, 0.5])
        result = simulate_trace_queue(rates, 1.0, service_rate=3.0, buffer_size=1.0)
        assert result.loss_rate == 0.0
        assert result.lost_work == 0.0
        assert result.empty_fraction == 1.0

    def test_deterministic_overflow(self):
        # Constant rate 2 into service 1 with buffer 0.5: after the buffer
        # fills, each unit-time bin loses 1 unit of work.
        rates = np.full(10, 2.0)
        result = simulate_trace_queue(rates, 1.0, service_rate=1.0, buffer_size=0.5)
        expected_lost = 10 * 1.0 - 0.5  # total excess minus what the buffer held
        assert result.lost_work == pytest.approx(expected_lost)
        assert result.loss_rate == pytest.approx(expected_lost / 20.0)
        assert result.full_fraction == 1.0

    def test_zero_buffer(self):
        rates = np.array([2.0, 0.0, 2.0, 0.0])
        result = simulate_trace_queue(rates, 1.0, service_rate=1.0, buffer_size=0.0)
        assert result.lost_work == pytest.approx(2.0)
        assert result.loss_rate == pytest.approx(0.5)

    def test_work_conservation(self, rng):
        # arrived = lost + served + final occupancy; served <= c * T.
        rates = rng.gamma(2.0, 1.0, 5000)
        c, b, dt = 2.2, 3.0, 0.1
        result = simulate_trace_queue(rates, dt, service_rate=c, buffer_size=b)
        assert result.arrived_work == pytest.approx(rates.sum() * dt)
        assert 0.0 <= result.mean_occupancy <= b

    def test_initial_occupancy(self):
        rates = np.array([0.0, 0.0])
        result = simulate_trace_queue(
            rates, 1.0, service_rate=1.0, buffer_size=5.0, initial_occupancy=3.0
        )
        # Drains 1 per bin: occupancy after bins: 2, 1 -> mean 1.5.
        assert result.mean_occupancy == pytest.approx(1.5)

    def test_validation(self):
        with pytest.raises(ValueError, match="rates"):
            simulate_trace_queue(np.array([]), 1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="initial_occupancy"):
            simulate_trace_queue(np.array([1.0]), 1.0, 1.0, 1.0, initial_occupancy=2.0)


class TestMultiBuffer:
    def test_matches_scalar_simulation(self, rng):
        # Seed 14 at buffer 0.05 has bins that add more than twice the
        # buffer, where clipping as ``Q - (Q - B)`` can miss ``B`` by an ulp.
        cases = [
            (rng.gamma(2.0, 1.0, 3000), np.array([0.0, 0.5, 2.0, 8.0])),
            (np.random.default_rng(14).gamma(2.0, 1.0, 3000), np.array([0.05])),
        ]
        for rates, buffers in cases:
            multi = simulate_trace_queue_multi(rates, 0.1, 2.2, buffers)
            for i, b in enumerate(buffers):
                scalar = simulate_trace_queue(rates, 0.1, 2.2, float(b))
                assert multi[i] == scalar.loss_rate, float(b)

    def test_loss_decreasing_in_buffer(self, rng):
        rates = rng.gamma(2.0, 1.0, 5000)
        buffers = np.linspace(0.0, 10.0, 8)
        losses = simulate_trace_queue_multi(rates, 0.1, 2.1, buffers)
        assert np.all(np.diff(losses) <= 1e-12)

    def test_validation(self, rng):
        with pytest.raises(ValueError, match="buffer_sizes"):
            simulate_trace_queue_multi(np.array([1.0]), 1.0, 1.0, np.array([]))
        with pytest.raises(ValueError, match="non-negative"):
            simulate_trace_queue_multi(np.array([1.0]), 1.0, 1.0, np.array([-1.0]))
        # The same occupancies simulate_trace_queue rejects.
        for occupancy in (-1.0, 2.0):
            with pytest.raises(ValueError, match="initial_occupancy"):
                simulate_trace_queue_multi(
                    np.array([1.0]), 1.0, 1.0, np.array([1.0, 3.0]),
                    initial_occupancy=occupancy,
                )


class TestSourceQueue:
    def test_statistics_sane(self, small_source, rng):
        result = simulate_source_queue(
            small_source, service_rate=1.25, buffer_size=1.0, intervals=50_000, rng=rng
        )
        assert 0.0 < result.loss_rate < 1.0
        assert 0.0 <= result.mean_occupancy <= 1.0
        assert 0.0 <= result.full_fraction <= 1.0

    def test_zero_loss_when_service_dominates(self, small_source, rng):
        result = simulate_source_queue(
            small_source, service_rate=2.5, buffer_size=1.0, intervals=10_000, rng=rng
        )
        assert result.loss_rate == 0.0

    def test_warmup_reduces_startup_bias(self, small_source):
        # With a large buffer, starting empty underestimates loss; warm-up
        # must not *decrease* the estimate.
        cold = simulate_source_queue(
            small_source, 1.25, 3.0, intervals=40_000, rng=np.random.default_rng(1)
        )
        warm = simulate_source_queue(
            small_source,
            1.25,
            3.0,
            intervals=40_000,
            rng=np.random.default_rng(1),
            warmup_intervals=5_000,
        )
        assert warm.loss_rate >= cold.loss_rate * 0.5  # sanity, not strict order

    def test_validation(self, small_source, rng):
        with pytest.raises(ValueError, match="intervals"):
            simulate_source_queue(small_source, 1.25, 1.0, intervals=0, rng=rng)
        with pytest.raises(ValueError, match="warmup"):
            simulate_source_queue(
                small_source, 1.25, 1.0, intervals=10, rng=rng, warmup_intervals=-1
            )

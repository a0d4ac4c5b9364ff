"""Tests for the bounded convolution solver (Section II, Proposition II.1)."""

from __future__ import annotations


import numpy as np
import pytest

from repro.core.marginal import DiscreteMarginal
from repro.core.solver import (
    FluidQueue,
    SolverConfig,
    _BoundedChains,
    _StackedGroup,
    solve_loss_rate,
)
from repro.core.source import CutoffFluidSource
from repro.core.truncated_pareto import TruncatedPareto
from repro.core.workload import WorkloadLaw
from repro.queueing.fluid_sim import simulate_source_queue


@pytest.fixture
def queue(small_source) -> FluidQueue:
    return FluidQueue(source=small_source, service_rate=1.25, buffer_size=1.0)


class TestConstruction:
    def test_utilization_and_normalized_buffer(self, queue):
        assert queue.utilization == pytest.approx(1.0 / 1.25)
        assert queue.normalized_buffer == pytest.approx(1.0 / 1.25)

    def test_from_normalized(self, small_source):
        queue = FluidQueue.from_normalized(
            source=small_source, utilization=0.8, normalized_buffer=0.5
        )
        assert queue.service_rate == pytest.approx(small_source.mean_rate / 0.8)
        assert queue.buffer_size == pytest.approx(0.5 * queue.service_rate)

    def test_rejects_bad_parameters(self, small_source):
        with pytest.raises(ValueError, match="service_rate"):
            FluidQueue(source=small_source, service_rate=0.0, buffer_size=1.0)
        with pytest.raises(ValueError, match="buffer_size"):
            FluidQueue(source=small_source, service_rate=1.0, buffer_size=-1.0)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="initial_bins"):
            SolverConfig(initial_bins=1)
        with pytest.raises(ValueError, match="max_bins"):
            SolverConfig(initial_bins=128, max_bins=64)
        with pytest.raises(ValueError, match="relative_gap"):
            SolverConfig(relative_gap=0.0)
        with pytest.raises(ValueError, match="max_iterations"):
            SolverConfig(block_iterations=100, max_iterations=50)


class TestTrivialCases:
    def test_zero_loss_when_peak_below_service(self, small_source):
        queue = FluidQueue(source=small_source, service_rate=2.5, buffer_size=1.0)
        result = queue.loss_rate()
        assert result.negligible
        assert result.estimate == 0.0
        assert result.iterations == 0

    def test_zero_buffer_exact(self, small_source):
        queue = FluidQueue(source=small_source, service_rate=1.25, buffer_size=0.0)
        result = queue.loss_rate()
        assert result.converged
        assert result.lower == result.upper
        assert result.estimate == pytest.approx(0.5 * 0.75 / 1.0)

    def test_overload_still_bounded(self, small_source):
        # Utilization > 1: heavy but well-defined loss.
        queue = FluidQueue(source=small_source, service_rate=0.8, buffer_size=0.5)
        result = queue.loss_rate()
        assert result.converged
        assert 0.0 < result.lower <= result.upper < 1.0
        # At utilization 1/0.8 the loss must at least absorb the mean excess.
        assert result.upper >= (1.0 - 0.8) / 1.0 * 0.9


class TestBoundsAndConvergence:
    def test_bounds_ordered_and_converged(self, queue):
        result = queue.loss_rate()
        assert result.converged
        assert 0.0 <= result.lower <= result.upper
        assert result.relative_gap <= 0.2 + 1e-9

    def test_monotone_in_iterations(self, small_source):
        """Proposition II.1: lower bound increasing, upper decreasing in n."""
        chains = _BoundedChains(
            workload=WorkloadLaw(source=small_source, service_rate=1.25),
            buffer_size=1.0,
            bins=64,
            use_fft=True,
        )
        group = _StackedGroup([chains])
        previous_lower, previous_upper = chains.loss_bounds()
        for _ in range(6):
            group.iterate(10)
            lower, upper = chains.loss_bounds()
            assert lower >= previous_lower - 1e-12
            assert upper <= previous_upper + 1e-12
            previous_lower, previous_upper = lower, upper

    def test_monotone_in_bins(self, small_source):
        """Proposition II.1: lower bound increasing, upper decreasing in M."""
        results = {}
        for bins in (32, 64, 128):
            chains = _BoundedChains(
                workload=WorkloadLaw(source=small_source, service_rate=1.25),
                buffer_size=1.0,
                bins=bins,
                use_fft=True,
            )
            _StackedGroup([chains]).iterate(400)
            results[bins] = chains.loss_bounds()
        assert results[32][0] <= results[64][0] + 1e-10 <= results[128][0] + 2e-10
        assert results[32][1] >= results[64][1] - 1e-10 >= results[128][1] - 2e-10

    def test_refinement_carries_distribution(self, small_source):
        chains = _BoundedChains(
            workload=WorkloadLaw(source=small_source, service_rate=1.25),
            buffer_size=1.0,
            bins=32,
            use_fft=True,
        )
        _StackedGroup([chains]).iterate(50)
        lower_before, upper_before = chains.loss_bounds()
        refined = chains.refined()
        assert refined.bins == 64
        assert refined.lower_pmf.sum() == pytest.approx(1.0)
        assert refined.upper_pmf.sum() == pytest.approx(1.0)
        lower_after, upper_after = refined.loss_bounds()
        # Same distributions evaluated on the same (finer) grid points.
        assert lower_after == pytest.approx(lower_before, rel=1e-9)
        assert upper_after == pytest.approx(upper_before, rel=1e-9)

    def test_refined_bounds_stay_ordered(self, small_source):
        """lower <= upper must survive refinement and further iteration."""
        chains = _BoundedChains(
            workload=WorkloadLaw(source=small_source, service_rate=1.25),
            buffer_size=1.0,
            bins=32,
            use_fft=True,
        )
        _StackedGroup([chains]).iterate(50)
        for _ in range(3):
            chains = chains.refined()
            lower, upper = chains.loss_bounds()
            assert lower <= upper + 1e-15
            _StackedGroup([chains]).iterate(20)
            lower, upper = chains.loss_bounds()
            assert lower <= upper + 1e-15

    def test_fft_and_direct_agree(self, small_source):
        kwargs = dict(
            workload=WorkloadLaw(source=small_source, service_rate=1.25),
            buffer_size=1.0,
            bins=128,
            fft_threshold_bins=0,  # force the spectral kernel despite bins < 256
        )
        fft_chains = _BoundedChains(use_fft=True, **kwargs)
        direct_chains = _BoundedChains(use_fft=False, **kwargs)
        _StackedGroup([fft_chains]).iterate(60)
        _StackedGroup([direct_chains]).iterate(60)
        for a, b in zip(fft_chains.loss_bounds(), direct_chains.loss_bounds()):
            assert a == pytest.approx(b, rel=1e-9, abs=1e-13)

    def test_negligible_loss_reported_zero(self, small_source):
        # Tiny cutoff and large buffer: upper bound below 1e-10 -> zero.
        source = small_source.with_cutoff(0.05)
        queue = FluidQueue(source=source, service_rate=1.25, buffer_size=5.0)
        result = queue.loss_rate()
        assert result.negligible
        assert result.estimate == 0.0

    def test_solver_brackets_monte_carlo(self, small_source, rng):
        queue = FluidQueue(source=small_source, service_rate=1.25, buffer_size=1.0)
        result = queue.loss_rate(SolverConfig(relative_gap=0.1))
        sim = simulate_source_queue(
            small_source, 1.25, 1.0, intervals=300_000, rng=rng, warmup_intervals=2_000
        )
        slack = 0.05 * sim.loss_rate
        assert result.lower - slack <= sim.loss_rate <= result.upper + slack

    def test_loss_increases_with_cutoff(self, small_source):
        losses = []
        for cutoff in (0.5, 2.0, 8.0):
            result = solve_loss_rate(
                small_source.with_cutoff(cutoff), utilization=0.8, normalized_buffer=0.5
            )
            losses.append(result.estimate)
        assert losses[0] <= losses[1] <= losses[2]

    def test_loss_decreases_with_buffer(self, small_source):
        losses = []
        for buffer_seconds in (0.1, 0.5, 2.0):
            result = solve_loss_rate(
                small_source, utilization=0.8, normalized_buffer=buffer_seconds
            )
            losses.append(result.estimate)
        assert losses[0] >= losses[1] >= losses[2]

    def test_unconverged_flag_when_bins_capped(self, small_source):
        config = SolverConfig(
            initial_bins=4, max_bins=4, relative_gap=1e-4, max_iterations=2_000,
            block_iterations=50,
        )
        queue = FluidQueue(source=small_source, service_rate=1.25, buffer_size=1.0)
        result = queue.loss_rate(config)
        assert not result.converged
        assert result.bins == 4

    def test_multilevel_marginal(self, multi_source, rng):
        queue = FluidQueue(source=multi_source, service_rate=1.4, buffer_size=0.8)
        result = queue.loss_rate(SolverConfig(relative_gap=0.1))
        sim = simulate_source_queue(
            multi_source, 1.4, 0.8, intervals=300_000, rng=rng, warmup_intervals=2_000
        )
        assert result.converged
        slack = 0.05 * sim.loss_rate
        assert result.lower - slack <= sim.loss_rate <= result.upper + slack

    def test_rate_equal_to_service_is_handled(self, pareto_law, rng):
        marginal = DiscreteMarginal(rates=[0.0, 1.25, 2.0], probs=[0.4, 0.2, 0.4])
        source = CutoffFluidSource(marginal=marginal, interarrival=pareto_law)
        queue = FluidQueue(source=source, service_rate=1.25, buffer_size=0.6)
        result = queue.loss_rate(SolverConfig(relative_gap=0.1))
        sim = simulate_source_queue(
            source, 1.25, 0.6, intervals=200_000, rng=rng, warmup_intervals=2_000
        )
        assert result.converged
        slack = 0.07 * sim.loss_rate
        assert result.lower - slack <= sim.loss_rate <= result.upper + slack

    def test_infinite_cutoff_converges(self, onoff_marginal):
        source = CutoffFluidSource(
            marginal=onoff_marginal, interarrival=TruncatedPareto(theta=0.1, alpha=1.4)
        )
        result = solve_loss_rate(source, utilization=0.8, normalized_buffer=0.5)
        assert result.converged
        assert result.estimate > 0.0


class TestOccupancyBounds:
    def test_snapshots_shape_and_masses(self, queue):
        snapshots = queue.occupancy_bounds((5, 10, 30), bins=100)
        assert len(snapshots) == 3
        for snap in snapshots:
            assert snap.grid.shape == (101,)
            assert snap.lower_pmf.sum() == pytest.approx(1.0)
            assert snap.upper_pmf.sum() == pytest.approx(1.0)

    def test_means_converge_toward_each_other(self, queue):
        snapshots = queue.occupancy_bounds((5, 30, 120), bins=100)
        gaps = [s.upper_mean - s.lower_mean for s in snapshots]
        assert gaps[0] >= gaps[1] >= gaps[2] >= -1e-12

    def test_stochastic_ordering_of_bounds(self, queue):
        (snapshot,) = queue.occupancy_bounds((50,), bins=100)
        # Lower chain cdf dominates upper chain cdf pointwise.
        assert np.all(snapshot.lower_cdf >= snapshot.upper_cdf - 1e-9)

    def test_iteration_bookkeeping(self, queue):
        snapshots = queue.occupancy_bounds((5, 10), bins=50)
        assert [s.iterations for s in snapshots] == [5, 10]

    def test_rejects_bad_checkpoints(self, queue):
        with pytest.raises(ValueError, match="checkpoints"):
            queue.occupancy_bounds(())

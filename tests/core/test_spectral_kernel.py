"""Spectral stepping kernel: equivalence, bound ordering and counters.

The spectral kernel advances both occupancy chains with one batched
rfft/irfft pair over cached increment spectra; each test steps one chain
pair as a group of one, the path every solo solve runs.  These tests pin
its contract:

* stepping agrees with the direct-convolution reference within tight
  tolerance (the kernels share exact semantics, only round-off differs);
* full solves over a golden grid of figure-style configurations preserve
  bound ordering, convergence/negligible flags, and converged estimates
  relative to the direct reference;
* the kernel-level counters (transforms, FFT vs boundary seconds, steps
  per refinement level) account for exactly the work performed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.marginal import DiscreteMarginal
from repro.core.solver import (
    DEFAULT_FFT_THRESHOLD_BINS,
    SOLVER_VERSION,
    FluidQueue,
    SolverConfig,
    _BoundedChains,
    _StackedGroup,
)
from repro.core.source import CutoffFluidSource
from repro.core.truncated_pareto import TruncatedPareto
from repro.core.workload import WorkloadLaw

SPECTRAL = SolverConfig(
    initial_bins=64, max_bins=1024, relative_gap=0.1, max_iterations=20_000,
    use_fft=True, fft_threshold_bins=0,
)
DIRECT = SolverConfig(
    initial_bins=64, max_bins=1024, relative_gap=0.1, max_iterations=20_000,
    use_fft=False,
)

# Figure-style golden grid: (cutoff_s, utilization, normalized_buffer_s).
GOLDEN_GRID = [
    (0.5, 0.7, 0.3),
    (0.5, 0.9, 0.1),
    (5.0, 0.8, 0.5),
    (5.0, 1.05, 0.2),
    (20.0, 0.85, 1.0),
    (100.0, 0.9, 0.4),
]


def _source(cutoff: float) -> CutoffFluidSource:
    return CutoffFluidSource(
        marginal=DiscreteMarginal(rates=[0.0, 2.0], probs=[0.5, 0.5]),
        interarrival=TruncatedPareto(theta=0.1, alpha=1.4, cutoff=cutoff),
    )


def _chains(bins: int, spectral: bool, **overrides) -> _BoundedChains:
    kwargs = dict(
        workload=WorkloadLaw(source=_source(5.0), service_rate=1.25),
        buffer_size=1.0,
        bins=bins,
        use_fft=spectral,
        fft_threshold_bins=0,
    )
    kwargs.update(overrides)
    return _BoundedChains(**kwargs)


class TestSteppingEquivalence:
    @pytest.mark.parametrize("bins", [16, 64, 128, 256, 512])
    def test_loss_bounds_match_direct(self, bins):
        spectral = _chains(bins, spectral=True)
        direct = _chains(bins, spectral=False)
        _StackedGroup([spectral]).iterate(50)
        _StackedGroup([direct]).iterate(50)
        for a, b in zip(spectral.loss_bounds(), direct.loss_bounds()):
            assert a == pytest.approx(b, rel=1e-9, abs=1e-13)

    @pytest.mark.parametrize("bins", [64, 256])
    def test_pmfs_match_direct(self, bins):
        spectral = _chains(bins, spectral=True)
        direct = _chains(bins, spectral=False)
        _StackedGroup([spectral]).iterate(40)
        _StackedGroup([direct]).iterate(40)
        np.testing.assert_allclose(spectral.lower_pmf, direct.lower_pmf, atol=1e-12)
        np.testing.assert_allclose(spectral.upper_pmf, direct.upper_pmf, atol=1e-12)

    def test_equivalence_survives_refinement(self):
        spectral = _chains(64, spectral=True)
        direct = _chains(64, spectral=False)
        for _ in range(2):
            _StackedGroup([spectral]).iterate(30)
            _StackedGroup([direct]).iterate(30)
            spectral = spectral.refined()
            direct = direct.refined()
        _StackedGroup([spectral]).iterate(30)
        _StackedGroup([direct]).iterate(30)
        for a, b in zip(spectral.loss_bounds(), direct.loss_bounds()):
            assert a == pytest.approx(b, rel=1e-9, abs=1e-13)

    def test_threshold_routes_small_grids_to_direct(self):
        below = _chains(64, spectral=True, fft_threshold_bins=DEFAULT_FFT_THRESHOLD_BINS)
        assert not below.spectral
        at = _chains(
            DEFAULT_FFT_THRESHOLD_BINS, spectral=True,
            fft_threshold_bins=DEFAULT_FFT_THRESHOLD_BINS,
        )
        assert at.spectral
        assert not _chains(4096, spectral=False).spectral


class TestGoldenGridSolves:
    @pytest.mark.parametrize("cutoff,utilization,buffer_s", GOLDEN_GRID)
    def test_spectral_preserves_reference_solve(self, cutoff, utilization, buffer_s):
        source = _source(cutoff)
        queue = FluidQueue.from_normalized(
            source=source, utilization=utilization, normalized_buffer=buffer_s
        )
        spectral = queue.loss_rate(SPECTRAL)
        reference = queue.loss_rate(DIRECT)
        # Bound ordering (Proposition II.1) and the paper's flags survive.
        assert 0.0 <= spectral.lower <= spectral.upper
        assert spectral.converged == reference.converged
        assert spectral.negligible == reference.negligible
        assert spectral.bins == reference.bins
        assert spectral.iterations == reference.iterations
        if spectral.converged:
            assert spectral.estimate == pytest.approx(reference.estimate, rel=1e-9)
            assert spectral.lower == pytest.approx(reference.lower, rel=1e-9, abs=1e-13)
            assert spectral.upper == pytest.approx(reference.upper, rel=1e-9, abs=1e-13)

    @pytest.mark.parametrize("cutoff,utilization,buffer_s", GOLDEN_GRID)
    def test_default_config_orders_bounds(self, cutoff, utilization, buffer_s):
        result = FluidQueue.from_normalized(
            source=_source(cutoff), utilization=utilization, normalized_buffer=buffer_s
        ).loss_rate(SolverConfig(relative_gap=0.1, max_iterations=20_000))
        assert 0.0 <= result.lower <= result.upper


class TestKernelCounters:
    def test_spectral_transform_count_is_exact(self):
        chains = _chains(128, spectral=True)
        group = _StackedGroup([chains])
        group.iterate(10)
        # 2 transforms for the cached increment spectra + 2 per step.
        assert chains.counters.transforms == 2 + 2 * 10
        group.iterate(5)
        assert chains.counters.transforms == 2 + 2 * 15

    def test_direct_path_performs_no_transforms(self):
        chains = _chains(128, spectral=False)
        _StackedGroup([chains]).iterate(10)
        assert chains.counters.transforms == 0
        assert chains.counters.fft_seconds >= 0.0

    def test_plan_is_cached_across_blocks(self):
        chains = _chains(128, spectral=True)
        group = _StackedGroup([chains])
        group.iterate(3)
        plan = group.plan
        group.iterate(3)
        assert group.plan is plan
        # The increment spectra were transformed once, not once per block.
        assert chains.counters.transforms == 2 + 2 * 6

    def test_counters_carry_across_refinement(self):
        chains = _chains(64, spectral=True)
        _StackedGroup([chains]).iterate(20)
        refined = chains.refined()
        assert refined.counters is chains.counters
        _StackedGroup([refined]).iterate(10)
        assert chains.counters.levels == [[64, 20], [128, 10]]

    def test_result_stats_account_for_all_iterations(self):
        source = _source(5.0)
        result = FluidQueue(
            source=source, service_rate=1.25, buffer_size=1.0
        ).loss_rate(SolverConfig(relative_gap=0.02))
        stats = result.stats
        assert stats is not None
        assert stats.total_steps == result.iterations
        assert stats.steps_per_level[-1][0] == result.bins
        assert stats.fft_seconds >= 0.0
        assert stats.boundary_seconds >= 0.0
        assert stats.kernel_seconds == pytest.approx(
            stats.fft_seconds + stats.boundary_seconds
        )
        # Refinement levels double the bin count monotonically.
        level_bins = [bins for bins, _ in stats.steps_per_level]
        assert level_bins == sorted(level_bins)

    def test_trivial_results_carry_no_stats(self):
        source = _source(5.0)
        result = FluidQueue(
            source=source, service_rate=2.5, buffer_size=1.0
        ).loss_rate()
        assert result.stats is None

    def test_stats_excluded_from_equality(self):
        queue = FluidQueue(source=_source(5.0), service_rate=1.25, buffer_size=1.0)
        fast = SolverConfig(initial_bins=32, max_bins=64, relative_gap=0.5)
        first = queue.loss_rate(fast)
        second = queue.loss_rate(fast)
        assert first == second  # timings differ, identity must not


def test_solver_version_is_current():
    """The stacked spectral kernel is solver revision 3; bump alongside kernel changes."""
    assert SOLVER_VERSION == 3

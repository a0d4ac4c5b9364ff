"""Tests for the workload-increment law W = T (lambda - c) and Eqs. 21-22."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.marginal import DiscreteMarginal
from repro.core.source import CutoffFluidSource
from repro.core.truncated_pareto import TruncatedPareto
from repro.core.workload import DiscretizedWorkload, WorkloadLaw


@pytest.fixture
def workload(small_source) -> WorkloadLaw:
    return WorkloadLaw(source=small_source, service_rate=1.25)


class TestMomentsAndSupport:
    def test_mean_product_form(self, workload, small_source):
        expected = small_source.mean_interval * (small_source.mean_rate - 1.25)
        assert workload.mean == pytest.approx(expected)

    def test_mean_matches_monte_carlo(self, workload, rng):
        samples = workload.sample(300_000, rng)
        assert samples.mean() == pytest.approx(workload.mean, abs=0.01)

    def test_variance_matches_monte_carlo(self, workload, rng):
        samples = workload.sample(300_000, rng)
        assert samples.var() == pytest.approx(workload.variance, rel=0.05)

    def test_infinite_cutoff_infinite_moments(self, onoff_marginal):
        source = CutoffFluidSource(
            marginal=onoff_marginal, interarrival=TruncatedPareto(theta=0.1, alpha=1.4)
        )
        law = WorkloadLaw(source=source, service_rate=1.25)
        assert law.second_moment == math.inf
        assert law.variance == math.inf

    def test_support_bounds(self, workload, small_source):
        low, high = workload.support
        cutoff = small_source.cutoff
        assert low == pytest.approx(cutoff * (0.0 - 1.25))
        assert high == pytest.approx(cutoff * (2.0 - 1.25))

    def test_support_infinite_cutoff(self, onoff_marginal):
        source = CutoffFluidSource(
            marginal=onoff_marginal, interarrival=TruncatedPareto(theta=0.1, alpha=1.4)
        )
        low, high = WorkloadLaw(source=source, service_rate=1.0).support
        assert low == -math.inf
        assert high == math.inf

    def test_rejects_nonpositive_service_rate(self, small_source):
        with pytest.raises(ValueError, match="service_rate"):
            WorkloadLaw(source=small_source, service_rate=0.0)


class TestExactCdf:
    def test_cdf_limits(self, workload):
        low, high = workload.support
        assert workload.cdf(low - 1.0) == pytest.approx(0.0)
        assert workload.cdf(high + 1.0) == pytest.approx(1.0)

    def test_cdf_monotone(self, workload):
        w = np.linspace(-7.0, 4.0, 300)
        cdf = np.asarray(workload.cdf(w))
        assert np.all(np.diff(cdf) >= -1e-12)

    def test_cdf_vs_monte_carlo(self, workload, rng):
        samples = workload.sample(200_000, rng)
        for w in (-2.0, -0.5, 0.0, 0.3, 1.5, 3.0):
            empirical = float(np.mean(samples <= w))
            assert float(workload.cdf(w)) == pytest.approx(empirical, abs=0.005)

    def test_atoms_at_cutoff_increments(self, workload, small_source):
        # W has an atom at cutoff * (rate - c) for each rate level.
        cutoff = small_source.cutoff
        atom_mass = small_source.interarrival.atom_at_cutoff
        for rate, prob in zip(small_source.marginal.rates, small_source.marginal.probs):
            w = cutoff * (rate - 1.25)
            jump = float(workload.cdf(w)) - float(workload.cdf_left(w))
            assert jump == pytest.approx(prob * atom_mass, rel=1e-9)

    def test_rate_equal_to_service_is_an_atom_at_zero(self, pareto_law):
        marginal = DiscreteMarginal(rates=[0.0, 1.25, 2.0], probs=[0.4, 0.2, 0.4])
        source = CutoffFluidSource(marginal=marginal, interarrival=pareto_law)
        law = WorkloadLaw(source=source, service_rate=1.25)
        jump = float(law.cdf(0.0)) - float(law.cdf_left(0.0))
        assert jump == pytest.approx(0.2, rel=1e-9)

    @given(st.floats(min_value=-8.0, max_value=8.0))
    @settings(max_examples=60, deadline=None)
    def test_cdf_left_below_cdf(self, w):
        marginal = DiscreteMarginal(rates=[0.0, 2.0], probs=[0.5, 0.5])
        source = CutoffFluidSource(
            marginal=marginal, interarrival=TruncatedPareto(theta=0.1, alpha=1.4, cutoff=5.0)
        )
        law = WorkloadLaw(source=source, service_rate=1.25)
        assert float(law.cdf_left(w)) <= float(law.cdf(w)) + 1e-12


class TestDiscretization:
    """Eqs. 21-22 through :meth:`DiscretizedWorkload.build`."""

    def test_masses_sum_to_one(self, workload):
        discretized = DiscretizedWorkload.build(workload, step=0.05, bins=64)
        assert discretized.w_lower.sum() == pytest.approx(1.0, abs=1e-9)
        assert discretized.w_upper.sum() == pytest.approx(1.0, abs=1e-9)

    def test_lengths(self, workload):
        discretized = DiscretizedWorkload.build(workload, step=0.1, bins=32)
        assert discretized.w_lower.shape == (65,)
        assert discretized.w_upper.shape == (65,)
        assert (discretized.step, discretized.bins) == (0.1, 32)
        assert discretized.law is workload

    def test_interior_masses_match_cdf_differences(self, workload):
        step, bins = 0.07, 40
        discretized = DiscretizedWorkload.build(workload, step=step, bins=bins)
        j = bins + 3  # interior index, increment value 3 * step
        value = (j - bins) * step
        expected_lower = float(workload.cdf_left(value + step)) - float(
            workload.cdf_left(value)
        )
        expected_upper = float(workload.cdf(value)) - float(workload.cdf(value - step))
        assert discretized.w_lower[j] == pytest.approx(expected_lower, abs=1e-12)
        assert discretized.w_upper[j] == pytest.approx(expected_upper, abs=1e-12)

    def test_quantized_means_bracket_true_mean(self, workload):
        # floor-quantization underestimates W, ceil overestimates.
        step, bins = 0.02, 256
        discretized = DiscretizedWorkload.build(workload, step=step, bins=bins)
        grid = (np.arange(2 * bins + 1) - bins) * step
        mean_lower = float(discretized.w_lower @ grid)
        mean_upper = float(discretized.w_upper @ grid)
        # Tail aggregation perturbs the raw means, but the ordering of the
        # quantization (up vs down) must hold.
        assert mean_lower <= mean_upper

    def test_stochastic_ordering_of_discretizations(self, workload):
        # ccdf of w_upper dominates ccdf of w_lower at every grid point.
        discretized = DiscretizedWorkload.build(workload, step=0.05, bins=64)
        tail_lower = np.cumsum(discretized.w_lower[::-1])[::-1]
        tail_upper = np.cumsum(discretized.w_upper[::-1])[::-1]
        assert np.all(tail_upper >= tail_lower - 1e-9)

    def test_rejects_bad_arguments(self, workload):
        with pytest.raises(ValueError, match="step"):
            DiscretizedWorkload.build(workload, step=0.0, bins=16)
        with pytest.raises(ValueError, match="bins"):
            DiscretizedWorkload.build(workload, step=0.1, bins=0)

    def test_refinement_conserves_mass_locally(self, workload):
        # Halving the step: each coarse lower-bin mass equals the sum of the
        # two fine bins covering it (up to tail handling at the ends).
        step, bins = 0.1, 20
        coarse_lower = DiscretizedWorkload.build(workload, step=step, bins=bins).w_lower
        fine_lower = DiscretizedWorkload.build(workload, step=step / 2, bins=2 * bins).w_lower
        j = bins + 4  # coarse interior index
        fine_j = 2 * bins + 8  # same increment value on the fine grid
        combined = fine_lower[fine_j] + fine_lower[fine_j + 1]
        assert combined == pytest.approx(coarse_lower[j], abs=1e-12)


class TestDiscretizedWorkload:
    """The cached-cdf discretization object behind grid refinement."""

    def test_refined_is_bit_identical_to_rebuild(self, workload):
        # Halving a float step is exact, so refined grid points coincide
        # bitwise with a from-scratch build at double resolution — the
        # midpoint-only cdf evaluation must therefore be lossless.
        coarse = DiscretizedWorkload.build(workload, step=0.1, bins=32)
        refined = coarse.refined()
        rebuilt = DiscretizedWorkload.build(workload, step=0.05, bins=64)
        assert refined.bins == rebuilt.bins
        assert refined.step == rebuilt.step
        np.testing.assert_array_equal(refined.lower_cdf, rebuilt.lower_cdf)
        np.testing.assert_array_equal(refined.upper_cdf, rebuilt.upper_cdf)
        np.testing.assert_array_equal(refined.w_lower, rebuilt.w_lower)
        np.testing.assert_array_equal(refined.w_upper, rebuilt.w_upper)

    def test_repeated_refinement_stays_exact(self, workload):
        discretized = DiscretizedWorkload.build(workload, step=0.2, bins=16)
        for _ in range(3):
            discretized = discretized.refined()
        rebuilt = DiscretizedWorkload.build(workload, step=0.025, bins=128)
        np.testing.assert_array_equal(discretized.w_lower, rebuilt.w_lower)
        np.testing.assert_array_equal(discretized.w_upper, rebuilt.w_upper)

    def test_refined_masses_stay_normalized(self, workload):
        refined = DiscretizedWorkload.build(workload, step=0.05, bins=64).refined()
        assert refined.w_lower.sum() == pytest.approx(1.0, abs=1e-9)
        assert refined.w_upper.sum() == pytest.approx(1.0, abs=1e-9)

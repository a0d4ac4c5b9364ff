"""Unit and property tests for the discrete rate marginal and its transforms."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.marginal import DiscreteMarginal


@st.composite
def marginals(draw) -> DiscreteMarginal:
    size = draw(st.integers(min_value=1, max_value=12))
    base = draw(
        hnp.arrays(
            np.float64,
            size,
            elements=st.floats(min_value=0.01, max_value=10.0),
        )
    )
    rates = np.cumsum(np.abs(base)) + 0.1  # strictly increasing, positive
    weights = draw(
        hnp.arrays(np.float64, size, elements=st.floats(min_value=0.01, max_value=1.0))
    )
    return DiscreteMarginal(rates=rates, probs=weights / weights.sum())


class TestConstruction:
    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError, match="same length"):
            DiscreteMarginal(rates=[1.0, 2.0], probs=[1.0])

    def test_rejects_unsorted_rates(self):
        with pytest.raises(ValueError, match="increasing"):
            DiscreteMarginal(rates=[2.0, 1.0], probs=[0.5, 0.5])

    def test_rejects_duplicate_rates(self):
        with pytest.raises(ValueError, match="increasing"):
            DiscreteMarginal(rates=[1.0, 1.0], probs=[0.5, 0.5])

    def test_rejects_negative_rates(self):
        with pytest.raises(ValueError, match="non-negative"):
            DiscreteMarginal(rates=[-1.0, 1.0], probs=[0.5, 0.5])

    def test_rejects_bad_probability_sum(self):
        with pytest.raises(ValueError, match="sum to 1"):
            DiscreteMarginal(rates=[0.0, 1.0], probs=[0.5, 0.6])

    def test_normalizes_tiny_drift(self):
        drift = 1.0 + 5e-8
        marginal = DiscreteMarginal(rates=[0.0, 1.0], probs=[0.5 * drift, 0.5 * drift])
        assert marginal.probs.sum() == pytest.approx(1.0, abs=1e-15)

    def test_arrays_are_immutable(self):
        marginal = DiscreteMarginal(rates=[0.0, 1.0], probs=[0.5, 0.5])
        with pytest.raises(ValueError):
            marginal.rates[0] = 5.0

    def test_two_state_constructor(self):
        marginal = DiscreteMarginal.two_state(low=0.0, high=2.0, prob_high=0.25)
        assert marginal.mean == pytest.approx(0.5)
        with pytest.raises(ValueError, match="prob_high"):
            DiscreteMarginal.two_state(low=0.0, high=2.0, prob_high=1.0)


class TestMoments:
    def test_onoff_moments(self, onoff_marginal):
        assert onoff_marginal.mean == pytest.approx(1.0)
        assert onoff_marginal.variance == pytest.approx(1.0)
        assert onoff_marginal.std == pytest.approx(1.0)
        assert onoff_marginal.peak == 2.0
        assert onoff_marginal.trough == 0.0
        assert onoff_marginal.size == 2

    def test_cdf_steps(self, three_level_marginal):
        assert three_level_marginal.cdf(-0.1) == 0.0
        assert three_level_marginal.cdf(0.0) == pytest.approx(0.3)
        assert three_level_marginal.cdf(2.0) == pytest.approx(0.8)
        assert three_level_marginal.cdf(10.0) == pytest.approx(1.0)

    def test_sampling_matches_probabilities(self, three_level_marginal, rng):
        samples = three_level_marginal.sample(100_000, rng)
        for rate, prob in zip(three_level_marginal.rates, three_level_marginal.probs):
            assert np.mean(samples == rate) == pytest.approx(prob, abs=0.01)

    @pytest.mark.parametrize(
        "probs",
        [
            [1.0],
            [0.3, 0.7],
            [0.0, 0.5, 0.0, 0.5, 0.0],  # empty levels at both ends and inside
            np.full(8, 1 / 8),  # the most levels sampled by counting
            np.full(9, 1 / 9),  # the fewest handed to Generator.choice
        ],
        ids=["1", "2", "zeros", "8", "9"],
    )
    def test_sampling_bits_match_generator_choice(self, probs):
        marginal = DiscreteMarginal(rates=np.arange(len(probs)) + 0.5, probs=probs)
        for seed in range(3):
            ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
            samples = marginal.sample(5000, ours)
            assert np.array_equal(samples, numpys.choice(marginal.rates, 5000, p=marginal.probs))
            assert ours.random() == numpys.random()  # the same draws consumed
        assert marginal.sample(0, np.random.default_rng(0)).shape == (0,)

    def test_sampling_tie_picks_the_upper_level_as_generator_choice_does(self):
        first_draw = np.random.default_rng(0).random()
        marginal = DiscreteMarginal(rates=[0.5, 1.5], probs=[first_draw, 1.0 - first_draw])
        cdf = np.cumsum(marginal.probs)
        assert cdf[0] / cdf[-1] == first_draw  # the first draw lands on the level
        assert marginal.sample(1, np.random.default_rng(0))[0] == 1.5
        assert np.random.default_rng(0).choice(marginal.rates, 1, p=marginal.probs)[0] == 1.5

    @given(marginals())
    @settings(max_examples=60, deadline=None)
    def test_variance_nonnegative(self, marginal):
        assert marginal.variance >= 0.0
        assert marginal.trough <= marginal.mean <= marginal.peak

    def test_quantile_basics(self, three_level_marginal):
        # cdf: 0.3, 0.8, 1.0 on rates 0, 1, 4.
        assert three_level_marginal.quantile(0.0) == 0.0
        assert three_level_marginal.quantile(0.3) == 0.0
        assert three_level_marginal.quantile(0.31) == 1.0
        assert three_level_marginal.quantile(0.8) == 1.0
        assert three_level_marginal.quantile(1.0) == 4.0
        with pytest.raises(ValueError, match="quantile"):
            three_level_marginal.quantile(1.5)

    @given(marginals(), st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=60, deadline=None)
    def test_quantile_inverts_cdf(self, marginal, level):
        value = float(marginal.quantile(level))
        assert marginal.trough <= value <= marginal.peak
        # Generalized inverse: cdf(quantile(q)) >= q.
        assert float(marginal.cdf(value)) >= level - 1e-12


class TestHistogramFitting:
    def test_from_samples_recovers_mean(self, rng):
        samples = rng.gamma(5.0, 2.0, size=50_000)
        marginal = DiscreteMarginal.from_samples(samples, bins=50)
        assert marginal.mean == pytest.approx(samples.mean(), rel=0.02)
        assert marginal.size <= 50

    def test_from_samples_drops_empty_bins(self, rng):
        samples = np.concatenate([rng.normal(1.0, 0.01, 1000), rng.normal(10.0, 0.01, 1000)])
        marginal = DiscreteMarginal.from_samples(samples, bins=50)
        assert marginal.size < 50  # the gap bins are dropped

    def test_from_samples_constant_trace(self):
        marginal = DiscreteMarginal.from_samples(np.full(100, 3.0), bins=50)
        assert marginal.size == 1
        assert marginal.mean == pytest.approx(3.0)

    def test_from_samples_rejects_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            DiscreteMarginal.from_samples(np.array([-1.0, 1.0]))

    def test_from_samples_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            DiscreteMarginal.from_samples(np.array([]))


class TestScalingTransform:
    def test_scaling_preserves_mean_and_scales_std(self, three_level_marginal):
        scaled = three_level_marginal.scaled(0.5)
        assert scaled.mean == pytest.approx(three_level_marginal.mean)
        assert scaled.std == pytest.approx(0.5 * three_level_marginal.std)

    def test_identity_scaling(self, three_level_marginal):
        scaled = three_level_marginal.scaled(1.0)
        np.testing.assert_allclose(scaled.rates, three_level_marginal.rates)

    def test_widening_clips_and_restores_mean(self):
        marginal = DiscreteMarginal(rates=[0.0, 2.0], probs=[0.5, 0.5])
        widened = marginal.scaled(1.5)  # naive low level would be -0.5
        assert widened.trough >= 0.0
        assert widened.mean == pytest.approx(marginal.mean, rel=1e-9)

    def test_widening_without_clip_raises(self):
        marginal = DiscreteMarginal(rates=[0.0, 2.0], probs=[0.5, 0.5])
        with pytest.raises(ValueError, match="negative"):
            marginal.scaled(1.5, clip_negative=False)

    def test_rejects_nonpositive_factor(self, onoff_marginal):
        with pytest.raises(ValueError, match="factor"):
            onoff_marginal.scaled(0.0)

    @given(marginals(), st.floats(min_value=0.1, max_value=1.0))
    @settings(max_examples=60, deadline=None)
    def test_narrowing_always_preserves_mean_exactly(self, marginal, factor):
        scaled = marginal.scaled(factor)
        assert scaled.mean == pytest.approx(marginal.mean, rel=1e-9)
        assert scaled.std <= marginal.std * (1.0 + 1e-9)


class TestSuperpositionTransform:
    def test_superposed_one_is_identity(self, three_level_marginal):
        assert three_level_marginal.superposed(1) is three_level_marginal

    def test_superposed_preserves_mean(self, three_level_marginal):
        for n in (2, 3, 5):
            merged = three_level_marginal.superposed(n)
            assert merged.mean == pytest.approx(three_level_marginal.mean, rel=1e-9)

    def test_superposed_shrinks_std_like_sqrt_n(self, three_level_marginal):
        n = 4
        merged = three_level_marginal.superposed(n)
        assert merged.std == pytest.approx(three_level_marginal.std / 2.0, rel=0.05)

    def test_superposed_two_onoff_support(self, onoff_marginal):
        merged = onoff_marginal.superposed(2)
        np.testing.assert_allclose(merged.rates, [0.0, 1.0, 2.0])
        np.testing.assert_allclose(merged.probs, [0.25, 0.5, 0.25])

    def test_superposed_respects_max_levels(self, three_level_marginal):
        merged = three_level_marginal.superposed(9, max_levels=16)
        assert merged.size <= 16
        assert merged.mean == pytest.approx(three_level_marginal.mean, rel=1e-6)

    def test_superposed_rejects_zero(self, onoff_marginal):
        with pytest.raises(ValueError, match="streams"):
            onoff_marginal.superposed(0)


class TestRebinAndShift:
    def test_rebinned_noop_when_small(self, three_level_marginal):
        assert three_level_marginal.rebinned(10) is three_level_marginal

    def test_rebinned_preserves_mean(self, rng):
        samples = rng.gamma(5.0, 2.0, size=20_000)
        marginal = DiscreteMarginal.from_samples(samples, bins=50)
        coarse = marginal.rebinned(8)
        assert coarse.size <= 8
        assert coarse.mean == pytest.approx(marginal.mean, rel=1e-9)

    def test_shifted(self, onoff_marginal):
        shifted = onoff_marginal.shifted(1.0)
        np.testing.assert_allclose(shifted.rates, [1.0, 3.0])
        with pytest.raises(ValueError, match="negative"):
            onoff_marginal.shifted(-1.0)

"""Tests for the cutoff fluid source: covariance Eq. 8, sampling, calibration."""

from __future__ import annotations


import numpy as np
import pytest

from repro.core.source import CutoffFluidSource, SourcePath
from repro.core.truncated_pareto import TruncatedPareto


class TestCovariance:
    def test_lag_zero_equals_variance(self, small_source):
        assert small_source.autocovariance(0.0) == pytest.approx(
            small_source.rate_variance
        )

    def test_zero_beyond_cutoff(self, small_source):
        assert small_source.autocovariance(small_source.cutoff) == 0.0
        assert small_source.autocovariance(small_source.cutoff * 2) == 0.0

    def test_monotone_decreasing(self, small_source):
        lags = np.linspace(0.0, small_source.cutoff, 100)
        cov = np.asarray(small_source.autocovariance(lags))
        assert np.all(np.diff(cov) <= 1e-12)

    def test_autocorrelation_normalized(self, small_source):
        lags = np.linspace(0.0, 4.0, 50)
        rho = np.asarray(small_source.autocorrelation(lags))
        assert rho[0] == pytest.approx(1.0)
        assert np.all((rho >= 0.0) & (rho <= 1.0))

    def test_infinite_cutoff_power_law_tail(self, onoff_marginal):
        source = CutoffFluidSource(
            marginal=onoff_marginal,
            interarrival=TruncatedPareto(theta=0.1, alpha=1.4),
        )
        # phi(t) ~ t^{1-alpha}: doubling the lag scales by 2^{-0.4}.
        t = 50.0
        ratio = source.autocovariance(2 * t) / source.autocovariance(t)
        assert ratio == pytest.approx(2.0 ** (1.0 - 1.4), rel=0.01)

    def test_empirical_covariance_matches_eq8(self, small_source, rng):
        # Sample a long path, bin it finely, compare the ACF at a few lags.
        bin_width = 0.05
        trace = small_source.rate_trace(duration=8000.0, bin_width=bin_width, rng=rng)
        centered = trace - trace.mean()
        for lag_bins in (4, 20, 40):
            empirical = float(np.mean(centered[:-lag_bins] * centered[lag_bins:]))
            # Binned rates smear the covariance over +-1 bin; integrate the
            # model covariance over the smear window for a fair target.
            lag = lag_bins * bin_width
            model = float(small_source.autocovariance(lag))
            assert empirical == pytest.approx(model, abs=0.12 * small_source.rate_variance)

    def test_cumulative_arrival_variance_small_t(self, small_source):
        # Var[A(t)] ~ sigma^2 t^2 for t << correlation time.
        t = 1e-3
        variance = small_source.cumulative_arrival_variance(t)
        assert variance == pytest.approx(small_source.rate_variance * t**2, rel=0.01)

    def test_cumulative_arrival_variance_monotone(self, small_source):
        values = [small_source.cumulative_arrival_variance(t) for t in (0.5, 1.0, 2.0, 8.0)]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestConstructionAndRebinding:
    def test_from_hurst_calibration(self, onoff_marginal):
        source = CutoffFluidSource.from_hurst(
            marginal=onoff_marginal, hurst=0.83, mean_interval=0.08, cutoff=5.0
        )
        assert source.hurst == pytest.approx(0.83)
        assert source.interarrival.theta == pytest.approx(0.08 * (3 - 2 * 0.83 - 1))

    def test_with_cutoff_round_trip(self, small_source):
        changed = small_source.with_cutoff(1.0)
        assert changed.cutoff == 1.0
        assert changed.marginal is small_source.marginal
        assert changed.interarrival.theta == small_source.interarrival.theta

    def test_with_marginal(self, small_source, three_level_marginal):
        changed = small_source.with_marginal(three_level_marginal)
        assert changed.mean_rate == pytest.approx(three_level_marginal.mean)
        assert changed.interarrival is small_source.interarrival


class TestSampling:
    def test_sample_path_shapes(self, small_source, rng):
        path = small_source.sample_path(1000, rng)
        assert path.durations.shape == (1000,)
        assert path.rates.shape == (1000,)
        assert path.total_time > 0.0
        assert path.total_work >= 0.0

    def test_sample_path_statistics(self, small_source, rng):
        path = small_source.sample_path(100_000, rng)
        assert path.durations.mean() == pytest.approx(small_source.mean_interval, rel=0.02)
        assert path.rates.mean() == pytest.approx(small_source.mean_rate, rel=0.02)

    def test_sample_path_rejects_zero(self, small_source, rng):
        with pytest.raises(ValueError, match="intervals"):
            small_source.sample_path(0, rng)

    def test_rate_trace_length_and_mean(self, small_source, rng):
        trace = small_source.rate_trace(duration=200.0, bin_width=0.1, rng=rng)
        assert trace.size == 2000
        assert trace.mean() == pytest.approx(small_source.mean_rate, rel=0.15)

    def test_rate_trace_nonnegative(self, small_source, rng):
        trace = small_source.rate_trace(duration=50.0, bin_width=0.05, rng=rng)
        assert np.all(trace >= -1e-12)

    def test_rate_trace_bits_match_the_plain_formulas(self, small_source):
        # The batch loop replayed with plain concatenate/cumsum/interp; a
        # short trace often needs a second batch, so both kinds are covered.
        duration = 60.0 * small_source.mean_interval
        bin_width = small_source.mean_interval / 2.0
        batch_counts = set()
        for seed in range(20):
            rng = np.random.default_rng(seed)
            paths, covered = [], 0.0
            while covered < duration:
                n = max(64, int(1.2 * (duration - covered) / small_source.mean_interval) + 1)
                paths.append(small_source.sample_path(n, rng))
                covered += paths[-1].total_time
            expected = _plain_binned_rates(
                np.concatenate([p.durations for p in paths]),
                np.concatenate([p.rates for p in paths]),
                bin_width,
            )[: int(duration / bin_width)]
            trace = small_source.rate_trace(duration, bin_width, np.random.default_rng(seed))
            assert np.array_equal(trace, expected)
            batch_counts.add(min(len(paths), 2))
        assert batch_counts == {1, 2}


def _plain_binned_rates(durations, rates, bin_width):
    epochs = np.concatenate([[0.0], np.cumsum(durations)])
    work = np.concatenate([[0.0], np.cumsum(durations * rates)])
    edges = np.arange(int(durations.sum() / bin_width) + 1) * bin_width
    return np.diff(np.interp(edges, epochs, work)) / bin_width


class TestSourcePath:
    def test_binning_conserves_work(self):
        path = SourcePath(
            durations=np.array([1.0, 0.5, 2.0, 0.5]), rates=np.array([2.0, 0.0, 1.0, 4.0])
        )
        binned = path.to_binned_rates(0.25)
        # Total binned work equals total path work over the covered bins.
        covered = binned.size * 0.25
        assert covered == pytest.approx(path.total_time)
        assert binned.sum() * 0.25 == pytest.approx(path.total_work)

    def test_binning_exact_values(self):
        # Rate 2 for 1s then rate 0 for 1s, binned at 0.5s.
        path = SourcePath(durations=np.array([1.0, 1.0]), rates=np.array([2.0, 0.0]))
        np.testing.assert_allclose(path.to_binned_rates(0.5), [2.0, 2.0, 0.0, 0.0])

    def test_binning_splits_partial_intervals(self):
        # Rate 3 for 0.5s then rate 1 for 1.5s; first 1s bin mixes both.
        path = SourcePath(durations=np.array([0.5, 1.5]), rates=np.array([3.0, 1.0]))
        np.testing.assert_allclose(path.to_binned_rates(1.0), [2.0, 1.0])

    def test_epochs(self):
        path = SourcePath(durations=np.array([1.0, 2.0]), rates=np.array([1.0, 1.0]))
        np.testing.assert_allclose(path.epochs, [0.0, 1.0, 3.0])

    def test_epochs_and_binning_bits_match_the_plain_formulas(self):
        rng = np.random.default_rng(6)
        path = SourcePath(durations=rng.exponential(size=5000), rates=rng.random(5000))
        epochs = np.concatenate([[0.0], np.cumsum(path.durations)])
        assert np.array_equal(path.epochs, epochs)
        expected = _plain_binned_rates(path.durations, path.rates, 0.7)
        assert np.array_equal(path.to_binned_rates(0.7), expected)

    def test_joined(self):
        first = SourcePath(durations=np.array([1.0, 2.0]), rates=np.array([3.0, 4.0]))
        second = SourcePath(durations=np.array([0.5]), rates=np.array([1.0]))
        assert SourcePath.joined([first]) is first
        both = SourcePath.joined([first, second])
        np.testing.assert_array_equal(both.durations, [1.0, 2.0, 0.5])
        np.testing.assert_array_equal(both.rates, [3.0, 4.0, 1.0])

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError, match="shapes"):
            SourcePath(durations=np.array([1.0]), rates=np.array([1.0, 2.0]))

    def test_too_short_for_one_bin(self):
        path = SourcePath(durations=np.array([0.1]), rates=np.array([1.0]))
        with pytest.raises(ValueError, match="bin"):
            path.to_binned_rates(1.0)

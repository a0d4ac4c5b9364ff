"""Tests for the Trace container and trace-to-model calibration."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.traffic.trace import Trace


@pytest.fixture
def simple_trace() -> Trace:
    return Trace(rates=np.array([1.0, 3.0, 1.0, 3.0, 2.0, 2.0, 2.0, 2.0]), bin_width=0.5)


class TestBasics:
    def test_statistics(self, simple_trace):
        assert simple_trace.n_bins == 8
        assert simple_trace.duration == pytest.approx(4.0)
        assert simple_trace.mean_rate == pytest.approx(2.0)
        assert simple_trace.peak_rate == 3.0
        assert simple_trace.total_work == pytest.approx(8.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="two samples"):
            Trace(rates=np.array([1.0]), bin_width=0.1)
        with pytest.raises(ValueError, match="non-negative"):
            Trace(rates=np.array([-1.0, 1.0]), bin_width=0.1)
        with pytest.raises(ValueError, match="bin_width"):
            Trace(rates=np.array([1.0, 2.0]), bin_width=0.0)
        with pytest.raises(ValueError, match="finite"):
            Trace(rates=np.array([1.0, math.nan]), bin_width=0.1)

    def test_rates_immutable(self, simple_trace):
        with pytest.raises(ValueError):
            simple_trace.rates[0] = 9.0


class TestTransforms:
    def test_aggregate_preserves_work(self, simple_trace):
        coarse = simple_trace.aggregate(2)
        assert coarse.n_bins == 4
        assert coarse.bin_width == pytest.approx(1.0)
        assert coarse.total_work == pytest.approx(simple_trace.total_work)
        assert coarse.mean_rate == pytest.approx(simple_trace.mean_rate)

    def test_aggregate_drops_remainder(self):
        trace = Trace(rates=np.arange(1.0, 8.0), bin_width=1.0)  # 7 samples
        coarse = trace.aggregate(3)
        assert coarse.n_bins == 2

    def test_aggregate_factor_one_identity(self, simple_trace):
        assert simple_trace.aggregate(1) is simple_trace

    def test_rescaled(self, simple_trace):
        scaled = simple_trace.rescaled(4.0)
        assert scaled.mean_rate == pytest.approx(4.0)
        assert scaled.rate_std == pytest.approx(2.0 * simple_trace.rate_std)

    def test_head(self, simple_trace):
        head = simple_trace.head(4)
        assert head.n_bins == 4
        np.testing.assert_allclose(head.rates, simple_trace.rates[:4])
        with pytest.raises(ValueError, match="n_bins"):
            simple_trace.head(100)


class TestPersistence:
    def test_round_trip(self, simple_trace, tmp_path):
        path = str(tmp_path / "trace.npz")
        simple_trace.save(path)
        loaded = Trace.load(path)
        np.testing.assert_array_equal(loaded.rates, simple_trace.rates)
        assert loaded.bin_width == simple_trace.bin_width
        assert loaded.name == simple_trace.name

    def test_round_trip_with_name(self, tmp_path):
        trace = Trace(rates=np.array([1.0, 2.0]), bin_width=0.5, name="demo")
        path = str(tmp_path / "named.npz")
        trace.save(path)
        assert Trace.load(path).name == "demo"


class TestCalibration:
    def test_marginal_mean(self, mtv_trace_small):
        marginal = mtv_trace_small.marginal(50)
        assert marginal.mean == pytest.approx(mtv_trace_small.mean_rate, rel=0.02)
        assert marginal.size <= 50

    def test_mean_epoch_duration_simple(self):
        # Alternating extremes: bin index changes every sample -> run length 1.
        trace = Trace(rates=np.array([0.0, 10.0] * 20), bin_width=0.1)
        assert trace.mean_epoch_duration(bins=10) == pytest.approx(0.1)

    def test_mean_epoch_duration_runs(self):
        # Runs of 3 samples per bin: mean run length 3 -> epoch 0.3 s.
        trace = Trace(rates=np.array([1.0, 1.0, 1.0, 9.0, 9.0, 9.0] * 4), bin_width=0.1)
        assert trace.mean_epoch_duration(bins=2) == pytest.approx(0.3)

    def test_constant_trace_epoch_is_duration(self):
        trace = Trace(rates=np.full(10, 2.0), bin_width=0.1)
        assert trace.mean_epoch_duration() == pytest.approx(1.0)

    def test_peak_rate_falls_in_the_last_bin(self):
        # 0.9 and the peak 1.0 share the top bin: one change in three samples.
        trace = Trace(rates=np.array([0.0, 0.9, 1.0]), bin_width=0.1)
        assert trace.mean_epoch_duration(bins=2) == pytest.approx(0.15)

    def test_mean_epoch_duration_rejects_bad_bins(self):
        trace = Trace(rates=np.array([0.0, 1.0]), bin_width=0.1)
        with pytest.raises(ValueError, match="bins"):
            trace.mean_epoch_duration(bins=0)

    def test_to_source_calibration(self, mtv_trace_small):
        source = mtv_trace_small.to_source(hurst=0.83)
        assert source.hurst == pytest.approx(0.83)
        assert source.mean_rate == pytest.approx(mtv_trace_small.mean_rate, rel=0.02)
        epoch = mtv_trace_small.mean_epoch_duration(50)
        # theta calibrated at T_c = inf: E[T] = theta / (alpha - 1) = epoch.
        law = source.interarrival
        assert law.theta / (law.alpha - 1.0) == pytest.approx(epoch)

    def test_to_source_with_cutoff(self, mtv_trace_small):
        source = mtv_trace_small.to_source(hurst=0.83, cutoff=2.0)
        assert source.cutoff == 2.0

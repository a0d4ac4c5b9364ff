"""Source adapters: renewal streams and known paths as piecewise-constant rates."""

from __future__ import annotations

import numpy as np
import pytest

from repro.netsim.sources import RateSource, RenewalSource, SegmentSource


def test_segment_source_validates():
    with pytest.raises(ValueError):
        SegmentSource(durations=(), rates=())
    with pytest.raises(ValueError):
        SegmentSource(durations=(1.0,), rates=(1.0, 2.0))
    with pytest.raises(ValueError):
        SegmentSource(durations=(0.0,), rates=(1.0,))
    with pytest.raises(ValueError):
        SegmentSource(durations=(1.0,), rates=(-0.5,))


def test_segment_source_mean_rate_is_time_weighted():
    source = SegmentSource(durations=(1.0, 3.0), rates=(4.0, 0.0))
    assert source.mean_rate == pytest.approx(1.0)
    assert source.total_time == pytest.approx(4.0)
    rng = np.random.default_rng(0)
    assert list(source.segments(rng)) == [(1.0, 4.0), (3.0, 0.0)]


def test_renewal_source_streams_across_chunks(small_source):
    adapter = RenewalSource(small_source)
    assert adapter.mean_rate == pytest.approx(small_source.mean_rate)
    stream = adapter.segments(np.random.default_rng(3))
    segments = [next(stream) for _ in range(2500)]  # > 2 chunks of 1024 deep
    assert all(duration > 0.0 for duration, _ in segments)
    assert all(rate >= 0.0 for _, rate in segments)
    rates = {rate for _, rate in segments}
    assert rates <= set(np.asarray(small_source.marginal.rates).tolist())
    # Each chunk is one ``sample_path`` call on the flow's stream.
    rng = np.random.default_rng(3)
    paths = [small_source.sample_path(1024, rng) for _ in range(3)]
    durations = np.concatenate([path.durations for path in paths])[:2500]
    assert [duration for duration, _ in segments] == durations.tolist()


def test_segment_source_from_array_validates():
    with pytest.raises(ValueError):
        SegmentSource.from_array(np.array([]), bin_width=0.1)
    with pytest.raises(ValueError):
        SegmentSource.from_array(np.array([1.0]), bin_width=0.0)
    with pytest.raises(ValueError):
        SegmentSource.from_array(np.array([1.0]), bin_width=float("nan"))


def test_segment_source_from_array_clips_negative_rates():
    source = SegmentSource.from_array(np.array([1.0, -2.0, 3.0]), bin_width=0.5)
    assert source.durations == (0.5, 0.5, 0.5)
    assert source.rates == (1.0, 0.0, 3.0)
    assert source.total_time == pytest.approx(1.5)
    rng = np.random.default_rng(0)
    assert list(source.segments(rng)) == [(0.5, 1.0), (0.5, 0.0), (0.5, 3.0)]


def test_base_interface_is_abstract():
    with pytest.raises(NotImplementedError):
        RateSource().segments(np.random.default_rng(0))

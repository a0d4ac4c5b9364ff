"""Statistics substrate: ACF, Hurst estimation, marginal summaries."""

from repro.analysis.acf import autocorrelation, autocovariance
from repro.analysis.histogram import coefficient_of_variation, marginal_summary
from repro.analysis.hurst import (
    HurstEstimate,
    periodogram_hurst,
    rs_hurst,
    variance_time_hurst,
)
from repro.analysis.stationarity import (
    SegmentSummary,
    mean_drift_statistic,
    segment_summary,
)
from repro.analysis.suite import HurstSuite, estimate_hurst_suite
from repro.analysis.wavelet import (
    WAVELET_FILTERS,
    dwt_details,
    logscale_diagram,
    wavelet_hurst,
)
from repro.analysis.whittle import fgn_spectral_shape, whittle_hurst

__all__ = [
    "autocovariance",
    "autocorrelation",
    "HurstEstimate",
    "variance_time_hurst",
    "rs_hurst",
    "periodogram_hurst",
    "whittle_hurst",
    "fgn_spectral_shape",
    "HurstSuite",
    "estimate_hurst_suite",
    "SegmentSummary",
    "segment_summary",
    "mean_drift_statistic",
    "wavelet_hurst",
    "dwt_details",
    "logscale_diagram",
    "WAVELET_FILTERS",
    "coefficient_of_variation",
    "marginal_summary",
]

"""FARIMA(0, d, 0) fractional-noise generator.

Fractionally integrated white noise is the discrete-time workhorse of LRD
modeling: its autocorrelation decays like ``k^{2d-1}``, giving Hurst
parameter ``H = d + 1/2`` for ``d in (0, 1/2)``.  The autocovariance has
the closed form

.. math:: \\gamma(0) = \\sigma^2 \\frac{\\Gamma(1-2d)}{\\Gamma(1-d)^2},
          \\qquad
          \\frac{\\gamma(k)}{\\gamma(k-1)} = \\frac{k-1+d}{k-d},

which we evaluate by the stable ratio recursion and feed into the same
circulant-embedding sampler as fGn.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.validation import check_in_open_interval, check_positive
from repro.traffic.fgn import sample_stationary_gaussian

__all__ = ["farima_autocovariance", "generate_farima", "d_from_hurst"]


def farima_autocovariance(d: float, lags: int, innovation_variance: float = 1.0) -> np.ndarray:
    """Autocovariance of FARIMA(0, d, 0) at lags ``0..lags-1``."""
    d = check_in_open_interval("d", d, -0.5, 0.5)
    check_positive("innovation_variance", innovation_variance)
    if lags < 1:
        raise ValueError(f"lags must be >= 1, got {lags}")
    gamma = np.empty(lags)
    gamma[0] = innovation_variance * math.gamma(1.0 - 2.0 * d) / math.gamma(1.0 - d) ** 2
    for k in range(1, lags):
        gamma[k] = gamma[k - 1] * (k - 1.0 + d) / (k - d)
    return gamma


def generate_farima(
    length: int,
    d: float,
    rng: np.random.Generator,
    mean: float = 0.0,
    std: float = 1.0,
) -> np.ndarray:
    """Exact FARIMA(0, d, 0) path normalized to the requested mean and std.

    ``d = H - 1/2`` links the memory parameter to the Hurst parameter of
    the aggregated process.
    """
    if length < 2:
        raise ValueError(f"length must be >= 2, got {length}")
    check_positive("std", std)
    gamma = farima_autocovariance(d, length)
    path = sample_stationary_gaussian(gamma, rng)
    return mean + std * path / math.sqrt(gamma[0])


def d_from_hurst(hurst: float) -> float:
    """Memory parameter for a target Hurst value: ``d = H - 1/2``."""
    check_in_open_interval("hurst", hurst, 0.0, 1.0)
    return hurst - 0.5

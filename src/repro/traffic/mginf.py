"""M/G/infinity session-arrival traffic model.

Sessions arrive as a Poisson process and stay active for i.i.d. heavy-
tailed (Pareto) durations, each contributing one unit of rate while active.
The instantaneous rate — the number of active sessions — is the classic
M/G/inf busy-server process; with duration tail exponent ``alpha in (1,2)``
its autocorrelation decays like ``t^{1-alpha}``, i.e. Hurst parameter
``H = (3 - alpha)/2``, the same mapping as the paper's fluid model.

Used as an alternative LRD substrate for generating synthetic traces and
for cross-checking the Hurst estimation suite.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.truncated_pareto import TruncatedPareto
from repro.core.validation import check_positive
from repro.traffic._intervals import binned_busy_time

__all__ = ["mginf_rates"]


def mginf_rates(
    arrival_rate: float,
    duration_law: TruncatedPareto,
    duration: float,
    bin_width: float,
    rng: np.random.Generator,
    warmup_factor: float = 20.0,
) -> np.ndarray:
    """Binned M/G/inf active-session counts over ``[0, duration)``.

    Parameters
    ----------
    arrival_rate:
        Poisson session arrival rate (sessions per second).
    duration_law:
        Session-length distribution.
    duration:
        Observation window length (seconds).
    bin_width:
        Bin size of the returned rate trace (seconds).
    rng:
        Source of randomness.
    warmup_factor:
        Sessions are also generated over ``warmup_factor * E[D]`` seconds
        *before* the window so long-lived sessions straddling time zero are
        represented (approximate stationarization; an exact one would need
        the residual-life law, which the heavy tail makes infinite-mean).

    Returns
    -------
    Per-bin average active-session counts (length ``floor(duration/bin_width)``).
    """
    check_positive("arrival_rate", arrival_rate)
    duration = check_positive("duration", duration)
    bin_width = check_positive("bin_width", bin_width)
    warmup = warmup_factor * duration_law.mean
    window = warmup + duration
    n_sessions = rng.poisson(arrival_rate * window)
    starts = rng.random(n_sessions) * window - warmup
    lengths = duration_law.sample(n_sessions, rng)
    ends = starts + lengths
    n_bins = int(math.floor(duration / bin_width))
    if n_bins < 1:
        raise ValueError("duration must cover at least one bin")
    edges = np.arange(n_bins + 1, dtype=np.float64) * bin_width
    keep = (ends > 0.0) & (starts < duration)
    busy = binned_busy_time(
        np.clip(starts[keep], 0.0, duration), np.clip(ends[keep], 0.0, duration), edges
    )
    return busy / bin_width

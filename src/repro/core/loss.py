"""Closed-form loss quantities (paper Eqs. 13-15).

The amount of work lost in one interarrival interval given queue occupancy
``Q = x`` is ``W_l = (W - (B - x))^+``.  Integrating its ccdf against the
truncated-Pareto interval law yields the closed form used by the solver
(the displayed equation below Eq. 14)::

    E[W_l | Q = x] = theta/(alpha-1) * sum_{i in S(x)} pi_i (lambda_i - c)
        * [ ((B - x)/(theta (lambda_i - c)) + 1)^(1-alpha)
            - (T_c/theta + 1)^(1-alpha) ]

with ``S(x) = { i : lambda_i > c and T_c (lambda_i - c) > B - x }`` — only
up-states whose maximum per-interval inflow can actually overflow the
remaining space contribute.  For an infinite cutoff the second bracket term
vanishes and every up-state contributes.

The long-term loss rate (Eq. 13) divides the stationary expectation of
``W_l`` by the expected work per interval ``mean_rate * E[T]``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.source import CutoffFluidSource
from repro.core.validation import check_nonnegative, check_positive

__all__ = [
    "expected_overflow",
    "zero_buffer_loss_rate",
]


def expected_overflow(
    source: CutoffFluidSource,
    service_rate: float,
    buffer_size: float,
    occupancy: np.ndarray | float,
) -> np.ndarray | float:
    """``E[W_l | Q = occupancy]`` — expected work lost in one interval.

    Parameters
    ----------
    source:
        The modulated fluid source.
    service_rate:
        Service rate ``c``.
    buffer_size:
        Buffer size ``B`` (work units, e.g. Mb).
    occupancy:
        Queue occupancy value(s) ``x`` in ``[0, B]``; scalar or array.

    Returns
    -------
    Expected overflow, same shape as ``occupancy``.
    """
    service_rate = check_positive("service_rate", service_rate)
    buffer_size = check_nonnegative("buffer_size", buffer_size)
    x = np.atleast_1d(np.asarray(occupancy, dtype=np.float64))
    if np.any((x < -1e-9) | (x > buffer_size * (1.0 + 1e-9) + 1e-9)):
        raise ValueError("occupancy values must lie in [0, buffer_size]")

    law = source.interarrival
    theta, alpha, cutoff = law.theta, law.alpha, law.cutoff
    rates = source.marginal.rates
    probs = source.marginal.probs

    up = rates > service_rate
    if not np.any(up):
        result = np.zeros_like(x)
        return result if np.ndim(occupancy) else float(result[0])

    drift = (rates[up] - service_rate)[:, None]  # (m, 1)
    weight = probs[up][:, None]
    headroom = np.maximum(buffer_size - x, 0.0)[None, :]  # (1, K)

    bracket = (headroom / (theta * drift) + 1.0) ** (1.0 - alpha)
    if cutoff != math.inf:
        bracket = bracket - (cutoff / theta + 1.0) ** (1.0 - alpha)
        feasible = cutoff * drift > headroom
        bracket = np.where(feasible, bracket, 0.0)
    contribution = weight * drift * bracket
    result = (theta / (alpha - 1.0)) * contribution.sum(axis=0)
    return result if np.ndim(occupancy) else float(result[0])


def zero_buffer_loss_rate(source: CutoffFluidSource, service_rate: float) -> float:
    """Exact loss rate of the bufferless queue (``B = 0``).

    With no buffer the queue occupancy is identically zero and every
    interval loses ``(W)^+ = T (lambda - c)^+``, so
    ``l = E[T] E[(lambda - c)^+] / (mean_rate E[T])
       = E[(lambda - c)^+] / mean_rate``.
    """
    service_rate = check_positive("service_rate", service_rate)
    rates = source.marginal.rates
    probs = source.marginal.probs
    excess = float(probs @ np.maximum(rates - service_rate, 0.0))
    mean_rate = source.mean_rate
    if mean_rate <= 0.0:
        raise ValueError("source mean rate must be positive")
    return excess / mean_rate

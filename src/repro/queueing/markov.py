"""Markov substrate: hyperexponential fitting and multi-time-scale Markov sources.

Section IV of the paper argues that *any* model capturing the correlation
structure up to the correlation horizon predicts the loss rate — including
multi-state Markov models, since "a power law decay can be approximated
arbitrarily closely by enough exponential decay functions" [24].  This
module builds those comparators:

* :func:`fit_hyperexponential` — Feldmann-Whitt recursive fitting of a
  hyperexponential (mixture of exponentials) to the heavy-tailed
  truncated-Pareto interarrival ccdf.  The renewal source with these
  intervals is :class:`~repro.traffic.mmpp.MarkovModulatedSource`, and
  its ``fluid_model()`` is the honest CTMC on ``(rate level, phase)``
  states whose rate autocovariance ``sigma^2 * sum_m p_m exp(-nu_m t)``
  is the exponential-mixture approximation of the model's Eq. 8;
* :func:`fit_multiscale_source` — a Robert-Le Boudec-style multi-time-
  scale fit of a cutoff fluid source: the Kronecker sum of independent
  two-state chains with geometrically spaced time constants, whose
  covariance is a sum of exponentials spanning the source's range of
  scales (a pseudo power law), with per-scale variances fitted to Eq. 8.

Both fits reach up to the same longest time scale, :func:`_top_scale`.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np
from scipy.optimize import nnls

from repro.core.source import CutoffFluidSource
from repro.core.truncated_pareto import TruncatedPareto
from repro.queueing.mmfq import MarkovFluidModel

__all__ = [
    "HyperexponentialFit",
    "fit_hyperexponential",
    "fit_multiscale_source",
]

_SAMPLES_PER_PHASE = 24
"""Density of the ccdf grid the hyperexponential least-squares fit samples."""

_SCALES = 6
"""Candidate time scales (two-state chains) of a multiscale fit: at most ``2**6`` states."""


def _top_scale(law: TruncatedPareto) -> float:
    """Longest time scale a fit tracks: the cutoff, or ``theta * 1e4`` if infinite."""
    return law.cutoff if law.cutoff != math.inf else law.theta * 1e4


@dataclass(frozen=True)
class HyperexponentialFit:
    """A mixture of exponentials ``ccdf(t) ~ sum_m weights_m exp(-nu_m t)``.

    Attributes
    ----------
    weights:
        Mixture weights (positive, sum to one).
    exit_rates:
        Phase rates ``nu_m`` (positive, decreasing: fast phases first).
    """

    weights: np.ndarray
    exit_rates: np.ndarray

    def __post_init__(self) -> None:
        weights = np.array(self.weights, dtype=np.float64)
        exit_rates = np.array(self.exit_rates, dtype=np.float64)
        if weights.shape != exit_rates.shape or weights.ndim != 1 or weights.size == 0:
            raise ValueError("weights and exit_rates must be matching 1-D arrays")
        if np.any(weights <= 0.0) or np.any(exit_rates <= 0.0):
            raise ValueError("weights and exit_rates must be positive")
        if abs(weights.sum() - 1.0) > 1e-8:
            raise ValueError("weights must sum to one")
        weights.flags.writeable = False
        exit_rates.flags.writeable = False
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "exit_rates", exit_rates)

    @property
    def phases(self) -> int:
        """Number of exponential phases."""
        return int(self.weights.size)

    @property
    def mean(self) -> float:
        """Mean of the mixture, ``sum w_m / nu_m``."""
        return float((self.weights / self.exit_rates).sum())

    @property
    def phase_occupancy(self) -> np.ndarray:
        """Long-run fraction of time spent in each phase, ``(w_m / nu_m) / mean``."""
        return (self.weights / self.exit_rates) / self.mean

    def sf(self, t: np.ndarray | float) -> np.ndarray | float:
        """Complementary cdf of the mixture."""
        return self._mix(self.weights, t)

    def residual_sf(self, t: np.ndarray | float) -> np.ndarray | float:
        """Stationary residual-life ccdf — the induced rate autocorrelation."""
        return self._mix(self.phase_occupancy, t)

    def _mix(self, coefficients: np.ndarray, t: np.ndarray | float) -> np.ndarray | float:
        """``sum_m coefficients_m exp(-nu_m t)`` at each ``t``."""
        t_arr = np.asarray(t, dtype=np.float64)
        decay = np.exp(-np.outer(t_arr.ravel(), self.exit_rates))
        out = (coefficients[None, :] * decay).sum(axis=1)
        out = out.reshape(t_arr.shape)
        return out if np.ndim(t) else float(out)

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``size`` i.i.d. intervals: all phases first, then unit exponentials."""
        phase = rng.choice(self.phases, size=size, p=self.weights)
        return rng.exponential(size=size) / self.exit_rates[phase]


def fit_hyperexponential(law: TruncatedPareto, phases: int = 8) -> HyperexponentialFit:
    """Fit a hyperexponential to a truncated-Pareto ccdf.

    In the spirit of Feldmann & Whitt's recursive matching — a power-law
    ccdf is tracked by a mixture of exponentials with geometrically spaced
    time constants — but solved as one *non-negative least squares*
    problem, which is far more robust across parameter ranges: the
    exponential dictionary spans ``[theta/20, top]`` (``top`` is the cutoff,
    or ``theta * 1e4`` for an infinite cutoff), the ccdf is sampled on a log
    grid with relative weighting, and ``sum w = 1`` is enforced softly.

    Parameters
    ----------
    law:
        The target interarrival law.
    phases:
        Dictionary size (more phases, wider faithful range); zero-weight
        phases are dropped from the result.

    Returns
    -------
    The fitted mixture (weights summing to one, fast phases first).
    """
    if phases < 1:
        raise ValueError(f"phases must be >= 1, got {phases}")
    top = _top_scale(law)
    span_decades = max(1.0, math.log10(top / (law.theta / 20.0)))
    # Time constants tau_m log-spaced; exit rates nu_m = 1/tau_m.
    taus = np.logspace(math.log10(top), math.log10(top) - span_decades, phases)
    exit_rates = 1.0 / taus

    t_samples = np.logspace(
        math.log10(top) - span_decades, math.log10(top), _SAMPLES_PER_PHASE * phases
    )
    target = np.asarray(law.sf(t_samples))
    keep = target > 1e-14
    t_samples, target = t_samples[keep], target[keep]
    # Relative weighting: divide each row by the target so every decade of
    # the ccdf counts equally.
    design = np.exp(-np.outer(t_samples, exit_rates)) / target[:, None]
    response = np.ones(t_samples.size)
    # Soft constraints, weighted strongly: sum w = 1 (the ccdf starts at 1)
    # and sum w/nu = E[T] (the truncation atom otherwise skews the mean).
    constraint_weight = 10.0 * math.sqrt(t_samples.size)
    total_row = constraint_weight * np.ones((1, phases))
    mean_row = (constraint_weight / law.mean) * (1.0 / exit_rates)[None, :]
    design = np.vstack([design, total_row, mean_row])
    response = np.concatenate([response, [constraint_weight, constraint_weight]])
    weights, _ = nnls(design, response)

    positive = weights > 1e-12
    if not np.any(positive):
        raise ValueError("hyperexponential fit failed: every weight is zero")
    weights = weights[positive]
    rates = exit_rates[positive]
    weights = weights / weights.sum()
    order = np.argsort(-rates)
    return HyperexponentialFit(weights=weights[order], exit_rates=rates[order])


def fit_multiscale_source(source: CutoffFluidSource) -> MarkovFluidModel:
    """Robert-Le Boudec-style multiscale Markov fit of a cutoff fluid source.

    Builds independent two-state chains with geometrically spaced time
    constants spanning ``[theta, T_c]`` and solves a non-negative
    least-squares problem for the per-scale variances so the
    superposition's covariance — a sum of ``exp(-t / tau_j)`` terms —
    matches the source's Eq. 8 covariance on a log grid of lags.  A
    constant base rate matches the mean exactly.

    The shared ON probability is the largest that carries the fitted
    variance within the source's mean rate (burstier sources force
    smaller ON probabilities).

    This is the second Markov comparator of Section IV: a parsimonious
    multi-time-scale model (one parameter per scale) rather than the
    (rate-level x phase) CTMC of
    :meth:`~repro.traffic.mmpp.MarkovModulatedSource.fluid_model`.
    """
    if not isinstance(source, CutoffFluidSource):
        raise TypeError("source must be a CutoffFluidSource")
    law = source.interarrival
    top = _top_scale(law)
    taus = np.logspace(math.log10(law.theta), math.log10(top), _SCALES)

    lags = np.logspace(math.log10(law.theta / 4.0), math.log10(top), 16 * _SCALES)
    target = np.asarray(source.autocovariance(lags))
    keep = target > 1e-14 * source.rate_variance
    lags, target = lags[keep], target[keep]
    design = np.exp(-lags[:, None] / taus[None, :]) / target[:, None]
    response = np.ones(lags.size)
    # Pin the total variance so phi(0) is matched.
    pin = 10.0 * math.sqrt(lags.size)
    design = np.vstack([design, (pin / source.rate_variance) * np.ones((1, _SCALES))])
    response = np.concatenate([response, [pin]])
    variances, _ = nnls(design, response)
    positive = variances > 1e-12 * source.rate_variance
    if not np.any(positive):
        raise ValueError("multiscale covariance fit failed")
    taus = taus[positive]
    variances = variances[positive]

    # Two-state chain with ON probability p and peak r has variance
    # p (1 - p) r^2 -> r_j = sqrt(v_j / (p (1 - p))) and mean p r_j.
    # Feasibility: sum_j p r_j <= mean, i.e. p/(1-p) <= (mean / sum sqrt(v))^2.
    root_sum = float(np.sqrt(variances).sum())
    odds_ceiling = (source.mean_rate / root_sum) ** 2 if root_sum > 0.0 else 1.0
    feasible_p = 0.98 * odds_ceiling / (1.0 + 0.98 * odds_ceiling)
    p = min(max(feasible_p, 1e-4), 1.0 - 1e-4)
    peaks = np.sqrt(variances / (p * (1.0 - p)))
    mean_from_chains = float(p * peaks.sum())
    base_rate = source.mean_rate - mean_from_chains
    if base_rate < 0.0:
        # Reached when p is raised to its 1e-4 floor (coefficient of variation
        # near 100 or above): shrink all peaks to fit, trading covariance
        # amplitude for a valid mean.
        shrink = source.mean_rate / mean_from_chains
        peaks = peaks * shrink
        base_rate = 0.0
    return _superpose_onoff_chains(taus, peaks, p, base_rate)


def _superpose_onoff_chains(
    time_constants: Iterable[float],
    peaks: Iterable[float],
    on_probability: float,
    base_rate: float,
) -> MarkovFluidModel:
    """Kronecker sum of independent two-state chains; rates add across chains.

    Chain j has stationary ON probability ``p`` and relaxation time
    ``tau_j`` (off->on at ``p / tau_j``, on->off at ``(1 - p) / tau_j``)
    and adds ``peaks[j]`` to ``base_rate`` while ON.
    """
    generator = np.zeros((1, 1))
    rates = np.full(1, base_rate)
    for tau, peak in zip(time_constants, peaks):
        to_on = on_probability / tau
        to_off = (1.0 - on_probability) / tau
        chain = np.array([[-to_on, to_on], [to_off, -to_off]])
        chain_rates = np.array([0.0, peak])
        size = generator.shape[0]
        generator = np.kron(generator, np.eye(2)) + np.kron(np.eye(size), chain)
        rates = (rates[:, None] + chain_rates[None, :]).ravel()
    return MarkovFluidModel(generator=generator, rates=rates)

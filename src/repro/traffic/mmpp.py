"""Markov-modulated on/off source family (Clegg's construction).

Clegg (arXiv:cs/0610135) builds *pseudo-LRD* traffic from a small Markov
chain: an N-state sojourn chain whose holding-time mixture tracks a
heavy-tailed law over a finite range of time scales, so the autocorrelation
follows the target power law ``r(t) ~ t^{2H-2}`` between the shortest and
longest phase time constants and decays exponentially beyond.  This is the
canonical *short-range-dependent competitor* for the paper's claim: inside
the correlation horizon it is indistinguishable from genuine LRD traffic,
outside it is honestly Markov.

:class:`MarkovModulatedSource` realizes the construction as a CTMC on
``(rate level, phase)`` states: the sojourn law is a hyperexponential
(phase ``m`` holds for ``Exp(nu_m)`` time) fitted to the repo's
truncated-Pareto interval law, and at each phase exit a fresh
``(rate, phase)`` pair is drawn i.i.d. from ``(marginal, phase_weights)``.
The rate autocorrelation is then the mixture's stationary residual-life
ccdf — a sum of exponentials approximating ``((t + theta)/theta)^{1-alpha}``
with ``alpha = 3 - 2H`` — while the rate marginal is matched *exactly*.

A sojourn is i.i.d. like the paper's renewal interval, so the source is a
:class:`~repro.core.source.RenewalModel` and shares the paper source's
samplers: :func:`mmpp_rates` (the same seeded generator protocol as
``fgn``/``onoff``/``mginf``: explicit ``numpy.random.Generator`` in,
binned trace out) runs :func:`~repro.core.source.binned_rate_trace`, and
:mod:`repro.netsim` streams it lazily as ``RenewalSource(model)`` or
replays a binned trace as ``SegmentSource.from_array(mmpp_rates(...),
bin_width)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.marginal import DiscreteMarginal
from repro.core.source import CutoffFluidSource, SourcePath, binned_rate_trace
from repro.core.truncated_pareto import TruncatedPareto
from repro.core.validation import check_in_open_interval, check_positive

__all__ = ["MarkovModulatedSource", "mmpp_rates"]

_INFINITE_HORIZON_DECADES = 1e4
"""Effective scale span used when the requested horizon is ``math.inf``."""


@dataclass(frozen=True)
class MarkovModulatedSource:
    """N-phase Markov-modulated fluid source with an exactly matched marginal.

    Attributes
    ----------
    marginal:
        The discrete rate law; matched exactly (rates are drawn i.i.d.
        from it at every phase exit), so ``mean_rate``/``rate_variance``
        equal the requested moments by construction.
    phase_weights:
        Phase pick probabilities ``w_m`` (positive, sum to one).
    phase_rates:
        Exponential exit rates ``nu_m`` (positive; fast phases first).
    target_hurst:
        The Hurst parameter the sojourn ladder was tuned to; the declared
        ``H`` of the pseudo power-law autocorrelation.
    horizon:
        Longest faithfully tracked time scale: beyond it the correlation
        decays exponentially (the chain is honestly short-range
        dependent there).
    """

    marginal: DiscreteMarginal
    phase_weights: np.ndarray
    phase_rates: np.ndarray
    target_hurst: float
    horizon: float

    def __post_init__(self) -> None:
        weights = np.asarray(self.phase_weights, dtype=np.float64)
        rates = np.asarray(self.phase_rates, dtype=np.float64)
        if weights.shape != rates.shape or weights.ndim != 1 or weights.size == 0:
            raise ValueError("phase_weights and phase_rates must be matching 1-D arrays")
        if np.any(weights <= 0.0) or np.any(rates <= 0.0):
            raise ValueError("phase_weights and phase_rates must be positive")
        if abs(weights.sum() - 1.0) > 1e-8:
            raise ValueError("phase_weights must sum to one")
        check_in_open_interval("target_hurst", self.target_hurst, 0.5, 1.0)
        check_positive("horizon", self.horizon)
        weights = weights.copy()
        rates = rates.copy()
        weights.flags.writeable = False
        rates.flags.writeable = False
        object.__setattr__(self, "phase_weights", weights)
        object.__setattr__(self, "phase_rates", rates)

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def from_hurst(
        cls,
        marginal: DiscreteMarginal,
        hurst: float,
        mean_interval: float,
        horizon: float,
        phases: int = 8,
    ) -> "MarkovModulatedSource":
        """Tune the sojourn ladder to a target ``H`` over ``[theta, horizon]``.

        Builds the truncated-Pareto law the paper would use for the same
        coordinates (``alpha = 3 - 2H``, theta from ``mean_interval`` via
        Eq. 25, cutoff at ``horizon``) and fits the hyperexponential
        sojourn mixture to its ccdf.
        """
        hurst = check_in_open_interval("hurst", hurst, 0.5, 1.0)
        law = TruncatedPareto.from_hurst_and_mean_interval(
            hurst=hurst, mean_interval=mean_interval, cutoff=horizon
        )
        return cls._from_law(marginal, law, phases)

    @classmethod
    def from_source(
        cls, source: CutoffFluidSource, phases: int = 8
    ) -> "MarkovModulatedSource":
        """The Markov-modulated twin of a paper source (matched marginal + H).

        The sojourn mixture is fitted to the source's own interarrival
        ccdf, so the two processes share the marginal exactly and the
        correlation structure up to the source's cutoff.
        """
        return cls._from_law(source.marginal, source.interarrival, phases)

    @classmethod
    def _from_law(
        cls, marginal: DiscreteMarginal, law: TruncatedPareto, phases: int
    ) -> "MarkovModulatedSource":
        from repro.queueing.markov import fit_hyperexponential

        fit = fit_hyperexponential(law, phases=phases)
        horizon = (
            law.cutoff
            if law.cutoff != math.inf
            else law.theta * _INFINITE_HORIZON_DECADES
        )
        return cls(
            marginal=marginal,
            phase_weights=fit.weights,
            phase_rates=fit.exit_rates,
            target_hurst=law.hurst,
            horizon=float(horizon),
        )

    # ------------------------------------------------------------------ #
    # first- and second-order statistics
    # ------------------------------------------------------------------ #

    @property
    def phases(self) -> int:
        """Number of sojourn phases ``N``."""
        return int(self.phase_weights.size)

    @property
    def states(self) -> int:
        """Size of the underlying CTMC: ``levels x phases``."""
        return self.marginal.size * self.phases

    @property
    def mean_rate(self) -> float:
        """Mean fluid rate (the marginal's mean, matched exactly)."""
        return self.marginal.mean

    @property
    def rate_variance(self) -> float:
        """Rate variance (the marginal's variance, matched exactly)."""
        return self.marginal.variance

    @property
    def hurst(self) -> float:
        """The Hurst parameter the correlation ladder was tuned to."""
        return self.target_hurst

    @property
    def mean_interval(self) -> float:
        """Mean sojourn time ``sum_m w_m / nu_m`` between rate redraws."""
        return float((self.phase_weights / self.phase_rates).sum())

    def sojourn_sf(self, lag: np.ndarray | float) -> np.ndarray | float:
        """Ccdf of the hyperexponential sojourn law."""
        lag_arr = np.asarray(lag, dtype=np.float64)
        decay = np.exp(-np.outer(lag_arr.ravel(), self.phase_rates))
        out = (self.phase_weights[None, :] * decay).sum(axis=1).reshape(lag_arr.shape)
        return out if np.ndim(lag) else float(out)

    def autocorrelation(self, lag: np.ndarray | float) -> np.ndarray | float:
        """Rate autocorrelation: the mixture's stationary residual-life ccdf."""
        lag_arr = np.asarray(lag, dtype=np.float64)
        time_weights = (
            self.phase_weights / self.phase_rates
        ) / self.mean_interval
        decay = np.exp(-np.outer(lag_arr.ravel(), self.phase_rates))
        out = (time_weights[None, :] * decay).sum(axis=1).reshape(lag_arr.shape)
        return out if np.ndim(lag) else float(out)

    def autocovariance(self, lag: np.ndarray | float) -> np.ndarray | float:
        """Rate autocovariance ``sigma^2 * autocorrelation(lag)``."""
        result = self.rate_variance * np.asarray(self.autocorrelation(lag))
        return result if np.ndim(lag) else float(result)

    def stationary_probs(self) -> np.ndarray:
        """Time-stationary occupation of the ``(level, phase)`` CTMC states.

        Row ``i``, column ``m`` is the long-run fraction of time spent at
        rate level ``i`` in phase ``m``: ``pi_i * (w_m / nu_m) / E[S]``.
        Marginalizing over phases (``.sum(axis=1)``) returns the rate
        marginal's probabilities — the round-trip the property tests pin.
        """
        time_weights = (
            self.phase_weights / self.phase_rates
        ) / self.mean_interval
        return np.outer(np.asarray(self.marginal.probs), time_weights)

    # ------------------------------------------------------------------ #
    # sampling (seeded generator protocol)
    # ------------------------------------------------------------------ #

    def sample_path(self, intervals: int, rng: np.random.Generator) -> SourcePath:
        """Draw ``intervals`` i.i.d. ``(sojourn, rate)`` pairs.

        Draw order is fixed (phases, then unit exponentials, then rates),
        so a given generator state always produces the same path.
        """
        if intervals < 1:
            raise ValueError(f"intervals must be >= 1, got {intervals}")
        phase = rng.choice(self.phases, size=intervals, p=self.phase_weights)
        durations = rng.exponential(size=intervals) / self.phase_rates[phase]
        rates = self.marginal.sample(intervals, rng)
        return SourcePath(durations=durations, rates=rates)

    def rate_trace(
        self, duration: float, bin_width: float, rng: np.random.Generator
    ) -> np.ndarray:
        """Sample a binned rate trace covering at least ``duration`` seconds."""
        return binned_rate_trace(self, duration, bin_width, rng)


def mmpp_rates(
    model: MarkovModulatedSource,
    duration: float,
    bin_width: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Binned rate trace of a Markov-modulated source (generator protocol).

    The module-level twin of ``generate_fgn``/``aggregate_onoff_rates``/
    ``mginf_rates``: explicit generator in, rate array out.
    """
    return model.rate_trace(duration, bin_width, rng)

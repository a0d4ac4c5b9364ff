"""The cutoff-correlated modulated fluid source (paper Section II).

A :class:`CutoffFluidSource` combines a :class:`~repro.core.marginal.DiscreteMarginal`
rate law with a :class:`~repro.core.truncated_pareto.TruncatedPareto`
interarrival law.  The fluid rate is piecewise constant: at each renewal
epoch a fresh rate is drawn i.i.d. from the marginal and held until the next
epoch.  Its autocovariance is

.. math::  \\phi(t) = \\sigma^2 \\; \\Pr\\{\\tau_{res} \\ge t\\}

(Eqs. 3, 8): the variance of the marginal times the stationary residual-life
ccdf of the interarrival law.  With an untruncated Pareto the process is
asymptotically second-order self-similar with ``H = (3 - alpha)/2``; with a
finite cutoff ``T_c`` the correlation is *exactly zero* beyond lag ``T_c``.

The class also exposes sample-path generation (interval sequences and
binned rate traces) used by the validation simulators and the shuffle
experiments.  Those samplers and the moments above depend on the interval
law only through its mean, residual-life ccdf and sampler, so they are
written once, on :class:`RenewalFluidSource`.  Its other subclass is the
Markov-modulated source of :mod:`repro.traffic.mmpp`, whose interval law
is a hyperexponential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.marginal import DiscreteMarginal
from repro.core.truncated_pareto import TruncatedPareto
from repro.core.validation import check_cutoff, check_in_open_interval, check_positive

if TYPE_CHECKING:
    from repro.queueing.markov import HyperexponentialFit

__all__ = ["CutoffFluidSource", "RenewalFluidSource", "SourcePath"]


@dataclass(frozen=True)
class SourcePath:
    """A sampled piecewise-constant rate path.

    Attributes
    ----------
    durations:
        Interval lengths ``T_n`` (seconds).
    rates:
        Constant fluid rate ``lambda(n)`` held during each interval.
    """

    durations: np.ndarray
    rates: np.ndarray

    def __post_init__(self) -> None:
        if self.durations.shape != self.rates.shape:
            raise ValueError("durations and rates must have identical shapes")

    @property
    def total_time(self) -> float:
        """Total covered time span."""
        return float(self.durations.sum())

    @property
    def total_work(self) -> float:
        """Total fluid volume carried by the path."""
        return float((self.durations * self.rates).sum())

    @property
    def epochs(self) -> np.ndarray:
        """Arrival epochs ``tau_n`` (starting at 0, length ``len(durations)+1``)."""
        epochs = np.empty(self.durations.size + 1)
        epochs[0] = 0.0
        np.cumsum(self.durations, out=epochs[1:])
        return epochs

    @classmethod
    def joined(cls, paths: list[SourcePath]) -> SourcePath:
        """The paths end to end; a single path is returned as it is."""
        if len(paths) == 1:
            return paths[0]
        return cls(
            durations=np.concatenate([p.durations for p in paths]),
            rates=np.concatenate([p.rates for p in paths]),
        )

    def to_binned_rates(self, bin_width: float) -> np.ndarray:
        """Average the path onto constant-width bins (a trace, like MTV/Bellcore).

        Exact: per-bin work is computed from interval overlaps via the
        cumulative-work function, then divided by the bin width.  Paths run
        to millions of intervals, so the cumulative work is built in place.
        """
        bin_width = check_positive("bin_width", bin_width)
        epochs = self.epochs
        cumulative_work = np.empty_like(epochs)
        cumulative_work[0] = 0.0
        work = np.multiply(self.durations, self.rates, out=cumulative_work[1:])
        np.cumsum(work, out=work)
        n_bins = int(math.floor(self.total_time / bin_width))
        if n_bins == 0:
            raise ValueError("path shorter than one bin")
        edges = np.arange(n_bins + 1) * bin_width
        # Work delivered up to time t: piecewise-linear interpolation of the
        # cumulative-work function at the interval epochs.
        work_at_edges = np.interp(edges, epochs, cumulative_work)
        return np.diff(work_at_edges) / bin_width


class RenewalFluidSource:
    """A fluid source whose rate path is i.i.d. ``(duration, rate)`` pairs.

    At each renewal epoch a rate is drawn from ``marginal`` and held for
    an interval drawn from ``interarrival``.  Every member below reads
    the interval law only through its ``mean``, ``residual_sf`` and
    ``sample``, so the paper's :class:`CutoffFluidSource` (truncated
    Pareto intervals) and
    :class:`~repro.traffic.mmpp.MarkovModulatedSource` (hyperexponential
    intervals) share them.  Each subclass is a frozen dataclass that
    declares both fields in its own body, where the solve-cache key's
    lint rule reads them.  netsim's ``RenewalSource`` streams either.
    """

    marginal: DiscreteMarginal
    interarrival: TruncatedPareto | HyperexponentialFit

    @property
    def mean_rate(self) -> float:
        """Mean fluid rate ``mu = Pi Lambda 1^T`` (Eq. 2)."""
        return self.marginal.mean

    @property
    def rate_variance(self) -> float:
        """Variance ``sigma^2`` of the fluid rate (Eq. 4)."""
        return self.marginal.variance

    @property
    def mean_interval(self) -> float:
        """Mean interval length ``E[T]`` (Eq. 25 for the truncated Pareto)."""
        return self.interarrival.mean

    def autocovariance(self, lag: np.ndarray | float) -> np.ndarray | float:
        """Autocovariance ``phi(t) = sigma^2 Pr{tau_res >= t}`` (Eqs. 3, 8)."""
        result = self.rate_variance * np.asarray(
            self.interarrival.residual_sf(lag), dtype=np.float64
        )
        return result if np.ndim(lag) else float(result)

    def autocorrelation(self, lag: np.ndarray | float) -> np.ndarray | float:
        """Normalized autocovariance ``phi(t)/sigma^2`` in [0, 1]."""
        result = np.asarray(self.interarrival.residual_sf(lag), dtype=np.float64)
        return result if np.ndim(lag) else float(result)

    def sample_path(self, intervals: int, rng: np.random.Generator) -> SourcePath:
        """Draw ``intervals`` i.i.d. (duration, rate) pairs: all durations, then all rates."""
        if intervals < 1:
            raise ValueError(f"intervals must be >= 1, got {intervals}")
        durations = self.interarrival.sample(intervals, rng)
        rates = self.marginal.sample(intervals, rng)
        return SourcePath(durations=durations, rates=rates)

    def rate_trace(
        self, duration: float, bin_width: float, rng: np.random.Generator
    ) -> np.ndarray:
        """Sample the path in batches until it covers ``duration``, then bin it.

        Returns ``int(duration / bin_width)`` bins.  Each batch draws 20 %
        more intervals than the uncovered time needs on average, and at
        least 64.
        """
        duration = check_positive("duration", duration)
        bin_width = check_positive("bin_width", bin_width)
        mean_interval = self.mean_interval
        batches: list[SourcePath] = []
        covered = 0.0
        while covered < duration:
            remaining = duration - covered
            n = max(64, int(1.2 * remaining / mean_interval) + 1)
            path = self.sample_path(n, rng)
            batches.append(path)
            covered += path.total_time
        trace = SourcePath.joined(batches).to_binned_rates(bin_width)
        return trace[: int(duration / bin_width)]


@dataclass(frozen=True)
class CutoffFluidSource(RenewalFluidSource):
    """Modulated fluid source with i.i.d. rates and truncated-Pareto intervals.

    Parameters
    ----------
    marginal:
        The discrete rate law (Pi, Lambda).
    interarrival:
        The truncated Pareto interval law (theta, alpha, T_c).

    Examples
    --------
    >>> from repro.core.marginal import DiscreteMarginal
    >>> from repro.core.truncated_pareto import TruncatedPareto
    >>> src = CutoffFluidSource(
    ...     marginal=DiscreteMarginal(rates=[0.0, 2.0], probs=[0.5, 0.5]),
    ...     interarrival=TruncatedPareto(theta=0.1, alpha=1.4, cutoff=10.0),
    ... )
    >>> src.autocovariance(src.cutoff)  # zero correlation beyond the cutoff
    0.0
    """

    marginal: DiscreteMarginal
    interarrival: TruncatedPareto

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def from_hurst(
        cls,
        marginal: DiscreteMarginal,
        hurst: float,
        mean_interval: float,
        cutoff: float = math.inf,
        calibrate_at_infinity: bool = True,
    ) -> "CutoffFluidSource":
        """Build a source from (marginal, H, mean epoch duration, T_c).

        This is the paper's trace-matching recipe (Section III): ``alpha``
        comes from ``H`` via ``alpha = 3 - 2H`` and ``theta`` is calibrated
        so the mean interval at ``T_c = inf`` matches the trace's mean epoch
        duration (Eq. 25).
        """
        hurst = check_in_open_interval("hurst", hurst, 0.5, 1.0)
        mean_interval = check_positive("mean_interval", mean_interval)
        cutoff = check_cutoff("cutoff", cutoff)
        law = TruncatedPareto.from_hurst_and_mean_interval(
            hurst=hurst,
            mean_interval=mean_interval,
            cutoff=cutoff,
            calibrate_at_infinity=calibrate_at_infinity,
        )
        return cls(marginal=marginal, interarrival=law)

    def with_cutoff(self, cutoff: float) -> "CutoffFluidSource":
        """Copy of this source with a different cutoff lag (paper's T_c sweep)."""
        return CutoffFluidSource(
            marginal=self.marginal, interarrival=self.interarrival.with_cutoff(cutoff)
        )

    def with_marginal(self, marginal: DiscreteMarginal) -> "CutoffFluidSource":
        """Copy of this source with a different rate marginal."""
        return CutoffFluidSource(marginal=marginal, interarrival=self.interarrival)

    # ------------------------------------------------------------------ #
    # first- and second-order statistics
    # ------------------------------------------------------------------ #

    @property
    def hurst(self) -> float:
        """Hurst parameter of the (untruncated) correlation decay."""
        return self.interarrival.hurst

    @property
    def cutoff(self) -> float:
        """Cutoff lag ``T_c`` beyond which correlation is exactly zero."""
        return self.interarrival.cutoff

    def cumulative_arrival_variance(self, horizon: float, grid_points: int = 4096) -> float:
        """``Var[A(t)]`` of cumulative arrivals over ``[0, horizon]``.

        Computed from the covariance kernel as
        ``Var[A(t)] = 2 \\int_0^t (t - s) phi(s) ds`` (trapezoid on a dense
        grid clipped at the cutoff, where the integrand vanishes).  Used by
        the dominant-time-scale horizon estimator.
        """
        horizon = check_positive("horizon", horizon)
        upper = min(horizon, self.cutoff) if self.cutoff != math.inf else horizon
        s = np.linspace(0.0, upper, grid_points)
        integrand = (horizon - s) * np.asarray(self.autocovariance(s))
        return float(2.0 * np.trapezoid(integrand, s))

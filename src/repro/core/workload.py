"""Workload-increment law ``W = T (lambda - c)`` (paper Eqs. 10, 21-22).

During one interarrival interval the queue content changes (before boundary
clipping) by ``W(n) = T_n (lambda(n) - c)``: interval length times the
difference between the arrival rate and the service rate.  Because ``T_n``
and ``lambda(n)`` are i.i.d. and mutually independent, the ``W(n)`` are
i.i.d.; their common law is the mixture over the rate levels of scaled
truncated-Pareto laws.

The solver needs this law twice:

* the exact cdf (both ``Pr{W <= w}`` and ``Pr{W < w}`` — the law has atoms
  at ``T_c (lambda_i - c)`` wherever the interarrival cutoff is finite, and
  at 0 when some rate equals the service rate);
* the *lower* and *upper* bin-mass vectors ``w_L`` / ``w_H`` of Eqs. 21-22,
  whose half-open conventions make the discretized queue processes genuine
  stochastic lower/upper bounds (Proposition II.1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.source import CutoffFluidSource
from repro.core.validation import check_positive

__all__ = ["WorkloadLaw", "DiscretizedWorkload"]


@dataclass(frozen=True)
class WorkloadLaw:
    """Distribution of the per-interval workload increment ``W = T (lambda - c)``.

    Parameters
    ----------
    source:
        The modulated fluid source supplying ``T`` and ``lambda``.
    service_rate:
        Constant service rate ``c`` of the queue (same unit as the rates).
    """

    source: CutoffFluidSource
    service_rate: float

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "service_rate", check_positive("service_rate", self.service_rate)
        )

    # ------------------------------------------------------------------ #
    # moments and support
    # ------------------------------------------------------------------ #

    @property
    def mean(self) -> float:
        """``E[W] = E[T] (mean_rate - c)`` (independence of T and lambda)."""
        return self.source.mean_interval * (self.source.mean_rate - self.service_rate)

    @property
    def second_moment(self) -> float:
        """``E[W^2] = E[T^2] E[(lambda - c)^2]``; infinite for an infinite cutoff."""
        t2 = self.source.interarrival.second_moment
        if t2 == math.inf:
            return math.inf
        diff2 = float(
            self.source.marginal.probs @ (self.source.marginal.rates - self.service_rate) ** 2
        )
        return t2 * diff2

    @property
    def variance(self) -> float:
        """``Var[W]``; infinite for an infinite cutoff."""
        m2 = self.second_moment
        return math.inf if m2 == math.inf else m2 - self.mean**2

    @property
    def support(self) -> tuple[float, float]:
        """(min, max) of the support; infinite endpoints for an infinite cutoff."""
        cutoff = self.source.cutoff
        low_rate = self.source.marginal.trough - self.service_rate
        high_rate = self.source.marginal.peak - self.service_rate
        low = 0.0 if low_rate >= 0.0 else (-math.inf if cutoff == math.inf else cutoff * low_rate)
        high = 0.0 if high_rate <= 0.0 else (math.inf if cutoff == math.inf else cutoff * high_rate)
        return (low, high)

    # ------------------------------------------------------------------ #
    # exact distribution functions (Eq. 10 integrated)
    # ------------------------------------------------------------------ #

    def cdf(self, w: np.ndarray | float) -> np.ndarray | float:
        """``Pr{W <= w}`` as the mixture over rate levels."""
        return self._mixture_cdf(w, left=False)

    def cdf_left(self, w: np.ndarray | float) -> np.ndarray | float:
        """``Pr{W < w}`` (needed at the atoms of ``W``)."""
        return self._mixture_cdf(w, left=True)

    def _mixture_cdf(self, w: np.ndarray | float, left: bool) -> np.ndarray | float:
        w_arr = np.atleast_1d(np.asarray(w, dtype=np.float64))
        law = self.source.interarrival
        rates = self.source.marginal.rates
        probs = self.source.marginal.probs
        total = np.zeros_like(w_arr)
        for rate, prob in zip(rates, probs):
            drift = rate - self.service_rate
            if drift > 0.0:
                t = w_arr / drift
                # W <= w  <=>  T <= t ; strictness carries over unchanged.
                component = law.cdf_left(t) if left else law.cdf(t)
            elif drift < 0.0:
                t = w_arr / drift
                # W <= w  <=>  T >= t (inequality flips under a negative factor).
                component = law.sf(t) if left else law.sf_inclusive(t)
            else:
                # lambda_i == c: W == 0 deterministically for this branch.
                component = (w_arr > 0.0) if left else (w_arr >= 0.0)
            total = total + prob * np.asarray(component, dtype=np.float64)
        return total if np.ndim(w) else float(total[0])

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Draw i.i.d. workload increments (for Monte Carlo validation)."""
        durations = self.source.interarrival.sample(size, rng)
        rates = self.source.marginal.sample(size, rng)
        return durations * (rates - self.service_rate)


def _masses_from_cdfs(
    lower_cdf: np.ndarray, upper_cdf: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Bin-mass vectors of Eqs. 21-22 from cdf values on ``step * [-m..m]``."""
    size = lower_cdf.size  # 2 m + 1

    w_lower = np.empty(size)
    w_lower[0] = lower_cdf[1]
    w_lower[1:-1] = np.diff(lower_cdf[1:])
    w_lower[-1] = 1.0 - lower_cdf[-1]

    w_upper = np.empty(size)
    w_upper[0] = upper_cdf[0]
    w_upper[1:-1] = np.diff(upper_cdf[:-1])
    w_upper[-1] = 1.0 - upper_cdf[-2]

    # Guard against float drift: masses are probabilities.
    np.clip(w_lower, 0.0, 1.0, out=w_lower)
    np.clip(w_upper, 0.0, 1.0, out=w_upper)
    return w_lower, w_upper


@dataclass(frozen=True, eq=False)
class DiscretizedWorkload:
    """One quantization level of a workload law, with its cdf points cached.

    Evaluating the mixture cdf is the expensive part of discretization
    (one truncated-Pareto branch per rate level per grid point).  Because
    the solver refines by *doubling* the bin count, every old grid point
    ``j * step`` reappears on the finer grid as ``2j * step/2`` — bitwise
    identically, since halving a float and doubling an integer index are
    both exact.  :meth:`refined` therefore evaluates the cdfs only at the
    ``2*bins`` new midpoints and interleaves them with the cached values,
    instead of recomputing all ``4*bins + 1`` points from scratch.

    Attributes
    ----------
    law:
        The workload-increment law being discretized.
    step, bins:
        Grid step and bin count; the grid is ``step * [-bins..bins]``.
    lower_cdf, upper_cdf:
        ``Pr{W < (j - bins) step}`` and ``Pr{W <= (j - bins) step}``.
    w_lower, w_upper:
        The Eqs. 21-22 bin-mass vectors derived from the cdfs.  Entry ``j``
        is the mass of the quantized increment ``(j - bins) * step``; mass
        beyond ``bins * step`` either way is folded into the end entries,
        as the queue recursion clips at 0 and B anyway.  ``w_lower``
        quantizes the increment down (floor), so its queue process is a
        stochastic lower bound; ``w_upper`` quantizes up (ceil) for the
        upper bound.
    """

    law: WorkloadLaw
    step: float
    bins: int
    lower_cdf: np.ndarray
    upper_cdf: np.ndarray
    w_lower: np.ndarray
    w_upper: np.ndarray

    @classmethod
    def build(cls, law: WorkloadLaw, step: float, bins: int) -> "DiscretizedWorkload":
        """Discretize from scratch, evaluating the cdfs at all ``2*bins+1`` points."""
        step = check_positive("step", step)
        if bins < 1:
            raise ValueError(f"bins must be >= 1, got {bins}")
        m = int(bins)
        points = np.arange(-m, m + 1, dtype=np.float64) * step
        lower_cdf = np.asarray(law.cdf_left(points))  # Pr{W < (j - m) step}
        upper_cdf = np.asarray(law.cdf(points))  # Pr{W <= (j - m) step}
        w_lower, w_upper = _masses_from_cdfs(lower_cdf, upper_cdf)
        return cls(
            law=law, step=step, bins=m,
            lower_cdf=lower_cdf, upper_cdf=upper_cdf,
            w_lower=w_lower, w_upper=w_upper,
        )

    def refined(self) -> "DiscretizedWorkload":
        """Halve the step, evaluating the cdfs only at the new grid midpoints.

        The returned object is bit-identical to
        ``build(law, step/2, 2*bins)`` (see the class docstring for why the
        carried-over points match exactly) at half the cdf-evaluation cost.
        """
        m = 2 * self.bins
        step = 0.5 * self.step
        midpoints = np.arange(-m + 1, m, 2, dtype=np.float64) * step
        lower_cdf = np.empty(2 * m + 1)
        lower_cdf[::2] = self.lower_cdf
        lower_cdf[1::2] = np.asarray(self.law.cdf_left(midpoints))
        upper_cdf = np.empty(2 * m + 1)
        upper_cdf[::2] = self.upper_cdf
        upper_cdf[1::2] = np.asarray(self.law.cdf(midpoints))
        w_lower, w_upper = _masses_from_cdfs(lower_cdf, upper_cdf)
        return DiscretizedWorkload(
            law=self.law, step=step, bins=m,
            lower_cdf=lower_cdf, upper_cdf=upper_cdf,
            w_lower=w_lower, w_upper=w_upper,
        )

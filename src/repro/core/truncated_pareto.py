"""Truncated Pareto interarrival-time distribution (paper Eq. 6).

The cutoff-correlated fluid model of Grossglauser & Bolot draws the lengths
of constant-rate intervals i.i.d. from the *truncated Pareto* law

.. math::

    \\Pr\\{T > t\\} = F_T(t) =
        \\begin{cases}
            \\left(\\frac{t+\\theta}{\\theta}\\right)^{-\\alpha} & t < T_c \\\\
            0 & t \\ge T_c
        \\end{cases}

with shape ``1 < alpha < 2``, scale ``theta > 0`` and cutoff lag ``T_c``
(possibly infinite).  Truncating the complementary cdf at ``T_c`` places an
**atom** of mass ``((T_c + theta)/theta)**(-alpha)`` at ``T_c``; the
distribution is continuous on ``(0, T_c)`` and mixed at the cutoff.  The
atom matters for the exact half-open bin conventions used by the solver
(Eqs. 21–22), so this class exposes both ``Pr{T <= t}`` (:meth:`cdf`) and
``Pr{T < t}`` (:meth:`cdf_left`).

The stationary residual life of the associated renewal process drives the
autocovariance of the fluid rate (Eqs. 5, 7); it is exposed as
:meth:`residual_sf`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.validation import check_cutoff, check_in_open_interval, check_positive

__all__ = ["TruncatedPareto"]


@dataclass(frozen=True)
class TruncatedPareto:
    """Truncated Pareto distribution with ccdf ``((t+theta)/theta)^-alpha`` for ``t < cutoff``.

    Parameters
    ----------
    theta:
        Scale parameter ``theta > 0``; for the paper's calibration at
        ``cutoff = inf`` the mean interarrival time is ``theta / (alpha - 1)``.
    alpha:
        Shape parameter, restricted to the open interval ``(1, 2)`` as in the
        paper; this keeps the mean finite and the variance infinite when
        ``cutoff = inf``, the regime that yields long-range dependence with
        Hurst parameter ``H = (3 - alpha) / 2``.
    cutoff:
        Cutoff lag ``T_c``; ``math.inf`` selects the pure Pareto law.

    Examples
    --------
    >>> law = TruncatedPareto(theta=0.02, alpha=1.2, cutoff=10.0)
    >>> round(law.mean, 6) > 0
    True
    >>> law.sf(law.cutoff)
    0.0
    """

    theta: float
    alpha: float
    cutoff: float = math.inf

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta", check_positive("theta", self.theta))
        object.__setattr__(self, "alpha", check_in_open_interval("alpha", self.alpha, 1.0, 2.0))
        object.__setattr__(self, "cutoff", check_cutoff("cutoff", self.cutoff))

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def from_hurst(cls, hurst: float, theta: float, cutoff: float = math.inf) -> "TruncatedPareto":
        """Build the law whose residual correlation decays with Hurst parameter ``hurst``.

        The paper's mapping (Section II) is ``H = (3 - alpha) / 2``, i.e.
        ``alpha = 3 - 2 H``; ``hurst`` must lie in ``(0.5, 1)``.
        """
        hurst = check_in_open_interval("hurst", hurst, 0.5, 1.0)
        return cls(theta=theta, alpha=3.0 - 2.0 * hurst, cutoff=cutoff)

    @classmethod
    def from_mean_interval(
        cls,
        mean_interval: float,
        alpha: float,
        cutoff: float = math.inf,
        calibrate_at_infinity: bool = True,
    ) -> "TruncatedPareto":
        """Choose ``theta`` so the mean interarrival time matches ``mean_interval``.

        With ``calibrate_at_infinity=True`` (the paper's procedure, Section
        III), ``theta`` is fixed from Eq. 25 evaluated at ``T_c = inf``:
        ``theta = mean_interval * (alpha - 1)``, and the *same* ``theta`` is
        used for every finite cutoff.  With ``False``, ``theta`` is solved
        numerically so that the mean at the *given* cutoff equals
        ``mean_interval``.
        """
        mean_interval = check_positive("mean_interval", mean_interval)
        alpha = check_in_open_interval("alpha", alpha, 1.0, 2.0)
        cutoff = check_cutoff("cutoff", cutoff)
        theta_inf = mean_interval * (alpha - 1.0)
        if calibrate_at_infinity or cutoff == math.inf:
            return cls(theta=theta_inf, alpha=alpha, cutoff=cutoff)
        # The mean is increasing in theta, and bounded above by the cutoff,
        # so a solution exists only if mean_interval < cutoff.  Bisection on
        # theta is robust and cheap.
        if mean_interval >= cutoff:
            raise ValueError(
                "mean_interval must be smaller than the cutoff when calibrating "
                f"at a finite cutoff; got mean_interval={mean_interval}, cutoff={cutoff}"
            )
        low, high = theta_inf, theta_inf
        while cls(theta=high, alpha=alpha, cutoff=cutoff).mean < mean_interval:
            high *= 2.0
        for _ in range(200):
            mid = 0.5 * (low + high)
            if cls(theta=mid, alpha=alpha, cutoff=cutoff).mean < mean_interval:
                low = mid
            else:
                high = mid
        return cls(theta=0.5 * (low + high), alpha=alpha, cutoff=cutoff)

    @classmethod
    def from_hurst_and_mean_interval(
        cls,
        hurst: float,
        mean_interval: float,
        cutoff: float = math.inf,
        calibrate_at_infinity: bool = True,
    ) -> "TruncatedPareto":
        """Combine :meth:`from_hurst` and :meth:`from_mean_interval`."""
        hurst = check_in_open_interval("hurst", hurst, 0.5, 1.0)
        return cls.from_mean_interval(
            mean_interval=mean_interval,
            alpha=3.0 - 2.0 * hurst,
            cutoff=cutoff,
            calibrate_at_infinity=calibrate_at_infinity,
        )

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #

    @property
    def hurst(self) -> float:
        """Hurst parameter ``H = (3 - alpha)/2`` of the untruncated correlation decay."""
        return (3.0 - self.alpha) / 2.0

    @property
    def atom_at_cutoff(self) -> float:
        """Probability mass ``Pr{T = cutoff}`` created by the truncation."""
        if self.cutoff == math.inf:
            return 0.0
        return float(((self.cutoff + self.theta) / self.theta) ** (-self.alpha))

    @property
    def mean(self) -> float:
        """Mean interarrival time ``E[T]`` (paper Eq. 25)."""
        if self.cutoff == math.inf:
            return self.theta / (self.alpha - 1.0)
        ratio = self.cutoff / self.theta + 1.0
        return self.theta / (self.alpha - 1.0) * (1.0 - ratio ** (1.0 - self.alpha))

    @property
    def second_moment(self) -> float:
        """``E[T^2]``; infinite when ``cutoff = inf`` because ``alpha < 2``.

        For a finite cutoff, integrating ``2 t Pr{T > t}`` over ``(0, T_c)``
        gives (with ``u = t + theta``)::

            E[T^2] = 2 theta^alpha [ (u^{2-a} - theta^{2-a}) / (2-a)
                                     - theta (u^{1-a} - theta^{1-a}) / (1-a) ]
                     evaluated at u = T_c + theta.
        """
        if self.cutoff == math.inf:
            return math.inf
        a = self.alpha
        th = self.theta
        u = self.cutoff + th
        term1 = (u ** (2.0 - a) - th ** (2.0 - a)) / (2.0 - a)
        term2 = th * (u ** (1.0 - a) - th ** (1.0 - a)) / (1.0 - a)
        return 2.0 * th**a * (term1 - term2)

    @property
    def variance(self) -> float:
        """``Var[T]``; infinite when ``cutoff = inf``."""
        if self.cutoff == math.inf:
            return math.inf
        return self.second_moment - self.mean**2

    @property
    def std(self) -> float:
        """Standard deviation of ``T``."""
        variance = self.variance
        return math.inf if variance == math.inf else math.sqrt(variance)

    # ------------------------------------------------------------------ #
    # distribution functions
    # ------------------------------------------------------------------ #

    def sf(self, t: np.ndarray | float) -> np.ndarray | float:
        """Complementary cdf ``Pr{T > t}`` — the paper's ``F_T(t)`` (Eq. 6).

        Right-continuous: ``sf(cutoff) == 0`` while ``sf(cutoff - eps)``
        approaches the atom mass plus zero continuous tail.
        """
        t_arr = np.asarray(t, dtype=np.float64)
        tail = ((np.maximum(t_arr, 0.0) + self.theta) / self.theta) ** (-self.alpha)
        out = np.where(t_arr < 0.0, 1.0, tail)
        if self.cutoff != math.inf:
            out = np.where(t_arr >= self.cutoff, 0.0, out)
        return out if np.ndim(t) else float(out)

    def sf_inclusive(self, t: np.ndarray | float) -> np.ndarray | float:
        """``Pr{T >= t}``; differs from :meth:`sf` only at the cutoff atom."""
        t_arr = np.asarray(t, dtype=np.float64)
        tail = ((np.maximum(t_arr, 0.0) + self.theta) / self.theta) ** (-self.alpha)
        out = np.where(t_arr <= 0.0, 1.0, tail)
        if self.cutoff != math.inf:
            out = np.where(t_arr > self.cutoff, 0.0, out)
        return out if np.ndim(t) else float(out)

    def cdf(self, t: np.ndarray | float) -> np.ndarray | float:
        """``Pr{T <= t}`` (includes the cutoff atom once ``t >= cutoff``)."""
        result = 1.0 - np.asarray(self.sf(t), dtype=np.float64)
        return result if np.ndim(t) else float(result)

    def cdf_left(self, t: np.ndarray | float) -> np.ndarray | float:
        """``Pr{T < t}`` (excludes the cutoff atom at ``t == cutoff``)."""
        result = 1.0 - np.asarray(self.sf_inclusive(t), dtype=np.float64)
        return result if np.ndim(t) else float(result)

    def pdf(self, t: np.ndarray | float) -> np.ndarray | float:
        """Density of the continuous part on ``(0, cutoff)``.

        The atom at the cutoff is *not* represented here; use
        :attr:`atom_at_cutoff` for it.
        """
        t_arr = np.asarray(t, dtype=np.float64)
        inside = (t_arr >= 0.0) & (t_arr < self.cutoff)
        clamped = np.maximum(t_arr, 0.0)
        density = (self.alpha / self.theta) * ((clamped + self.theta) / self.theta) ** (
            -self.alpha - 1.0
        )
        out = np.where(inside, density, 0.0)
        return out if np.ndim(t) else float(out)

    def residual_sf(self, t: np.ndarray | float) -> np.ndarray | float:
        """Stationary residual-life ccdf ``Pr{tau_res >= t}`` (paper Eq. 7).

        This is exactly the normalized correlation ``phi(t)/sigma^2`` of the
        fluid rate process (Eq. 3): correlation drops to zero at the cutoff.
        """
        t_arr = np.asarray(t, dtype=np.float64)
        a1 = 1.0 - self.alpha  # negative exponent "-alpha + 1"
        if self.cutoff == math.inf:
            out = ((np.maximum(t_arr, 0.0) + self.theta) / self.theta) ** a1
        else:
            top = (np.maximum(t_arr, 0.0) + self.theta) ** a1 - (self.cutoff + self.theta) ** a1
            bottom = self.theta**a1 - (self.cutoff + self.theta) ** a1
            out = np.where(t_arr >= self.cutoff, 0.0, top / bottom)
        out = np.where(t_arr <= 0.0, 1.0, out)
        return out if np.ndim(t) else float(out)

    # ------------------------------------------------------------------ #
    # sampling
    # ------------------------------------------------------------------ #

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``size`` i.i.d. interarrival times by inverse transform.

        Uniform draws below ``1 - atom`` map through the Pareto quantile
        function; the rest land on the cutoff atom.  The transform
        ``theta * ((1 - u) ** (-1 / alpha) - 1)`` runs in place on the
        uniform draws, one step at a time, with the same bits.
        """
        if size < 0:
            raise ValueError(f"size must be non-negative, got {size}")
        samples = rng.random(size)
        np.subtract(1.0, samples, out=samples)
        samples **= -1.0 / self.alpha
        samples -= 1.0
        samples *= self.theta
        if self.cutoff != math.inf:
            np.minimum(samples, self.cutoff, out=samples)
        return samples

    def quantile(self, q: np.ndarray | float) -> np.ndarray | float:
        """Inverse cdf; quantiles at or beyond ``1 - atom`` map to the cutoff."""
        q_arr = np.asarray(q, dtype=np.float64)
        if np.any((q_arr < 0.0) | (q_arr > 1.0)):
            raise ValueError("quantile levels must lie in [0, 1]")
        with np.errstate(divide="ignore"):
            out = self.theta * ((1.0 - q_arr) ** (-1.0 / self.alpha) - 1.0)
        if self.cutoff != math.inf:
            out = np.minimum(out, self.cutoff)
        return out if np.ndim(q) else float(out)

    def with_cutoff(self, cutoff: float) -> "TruncatedPareto":
        """Return a copy with a different cutoff lag (theta and alpha unchanged).

        This is the paper's main experimental knob: sweep ``T_c`` while the
        short-lag structure, governed by theta and alpha, stays fixed.
        """
        return TruncatedPareto(theta=self.theta, alpha=self.alpha, cutoff=cutoff)

"""Result containers returned by the numerical solver.

Kept in their own module so downstream code (experiments, benchmarks, CLI)
can depend on the result shapes without importing solver internals.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["SolverStats", "LossRateResult", "OccupancyBounds"]


@dataclass(frozen=True)
class SolverStats:
    """Kernel-level accounting of where one solve spent its time.

    Attributes
    ----------
    transforms:
        Number of batched real-FFT operations executed (forward and
        inverse each count once; the direct-convolution path contributes
        zero).
    fft_seconds:
        Wall-clock seconds inside the convolution kernel — the batched
        rfft/irfft pair on the spectral path, ``np.convolve`` on the
        direct path.
    boundary_seconds:
        Wall-clock seconds in the spatial-domain boundary handling
        (reflection at 0, absorption at B, clipping and renormalization).
    steps_per_level:
        ``(bins, steps)`` pairs, one per refinement level in visit order,
        recording how many convolution steps ran at each quantization
        level.
    batch_width:
        Widest multi-task stack this solve ever stepped in (v3 batched
        kernel), on the spectral or the direct path.  1 means the solve
        ran solo — either dispatched per task or planned into a batch
        whose other members never shared a refinement level with it.
    """

    transforms: int
    fft_seconds: float
    boundary_seconds: float
    steps_per_level: tuple[tuple[int, int], ...]
    batch_width: int = 1

    @property
    def total_steps(self) -> int:
        """Convolution steps summed over all refinement levels."""
        return sum(steps for _, steps in self.steps_per_level)

    @property
    def kernel_seconds(self) -> float:
        """Total accounted kernel time (convolution + boundary handling)."""
        return self.fft_seconds + self.boundary_seconds


@dataclass(frozen=True)
class LossRateResult:
    """Bounded loss-rate estimate produced by the convolution solver.

    Attributes
    ----------
    lower, upper:
        Rigorous lower/upper bounds on the stationary loss rate, obtained
        from the floor/ceil discretized queue processes started empty/full
        (Proposition II.1).
    iterations:
        Total number of convolution iterations performed (across all
        refinement levels).
    bins:
        Final number of quantization bins M (grid step ``d = B / M``).
    converged:
        True when the 20 %-gap criterion (or the negligible-loss criterion)
        was met before hitting iteration/bin limits.
    negligible:
        True when the *upper* bound fell below the negligible-loss
        threshold (1e-10 by default); the paper reports zero loss then.
    stats:
        Optional :class:`SolverStats` kernel accounting.  Excluded from
        equality so a cache round trip (which drops the timings) still
        compares equal to a fresh solve; ``None`` for trivial/cached
        results.
    """

    lower: float
    upper: float
    iterations: int
    bins: int
    converged: bool
    negligible: bool
    stats: SolverStats | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.lower < -1e-15:
            raise ValueError(f"lower bound must be non-negative, got {self.lower}")
        if self.upper < self.lower - 1e-12:
            raise ValueError(
                f"upper bound {self.upper} must dominate lower bound {self.lower}"
            )

    @property
    def estimate(self) -> float:
        """The paper's reported number: 0 if negligible, else the bound average."""
        if self.negligible:
            return 0.0
        return 0.5 * (self.lower + self.upper)

    @property
    def gap(self) -> float:
        """Absolute distance between the bounds."""
        return self.upper - self.lower

    @property
    def relative_gap(self) -> float:
        """Gap divided by the bound average (the paper's 20 % criterion)."""
        mid = 0.5 * (self.lower + self.upper)
        return 0.0 if mid == 0.0 else self.gap / mid

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        status = "converged" if self.converged else "NOT converged"
        return (
            f"loss ~ {self.estimate:.3e} (bounds [{self.lower:.3e}, {self.upper:.3e}], "
            f"{self.iterations} iterations, M={self.bins}, {status})"
        )


@dataclass(frozen=True)
class OccupancyBounds:
    """Snapshot of the discretized occupancy bound distributions (Fig. 2).

    Attributes
    ----------
    grid:
        Occupancy grid ``j * d`` for ``j = 0..M``.
    lower_pmf, upper_pmf:
        Probability masses of the lower-bound chain (started empty, floor
        quantization) and upper-bound chain (started full, ceil
        quantization) after ``iterations`` steps.
    iterations:
        Number of recursion steps n applied.
    """

    grid: np.ndarray
    lower_pmf: np.ndarray
    upper_pmf: np.ndarray
    iterations: int

    def __post_init__(self) -> None:
        if not (self.grid.shape == self.lower_pmf.shape == self.upper_pmf.shape):
            raise ValueError("grid and pmfs must share one shape")

    @property
    def lower_cdf(self) -> np.ndarray:
        """Cumulative distribution of the lower-bound chain."""
        return np.cumsum(self.lower_pmf)

    @property
    def upper_cdf(self) -> np.ndarray:
        """Cumulative distribution of the upper-bound chain."""
        return np.cumsum(self.upper_pmf)

    @property
    def lower_mean(self) -> float:
        """Mean occupancy under the lower-bound chain."""
        return float(self.lower_pmf @ self.grid)

    @property
    def upper_mean(self) -> float:
        """Mean occupancy under the upper-bound chain."""
        return float(self.upper_pmf @ self.grid)

    def quantile(self, level: float) -> tuple[float, float]:
        """Occupancy quantile bracket ``(lower, upper)`` at ``level``.

        The lower-bound chain is stochastically below the true occupancy
        and the upper-bound chain above it, so the pair brackets the true
        quantile.  ``level`` is a probability in (0, 1); e.g.
        ``quantile(0.99)`` brackets the 99th-percentile queue content, and
        dividing by the service rate turns it into a delay percentile.
        """
        if not (0.0 < level < 1.0):
            raise ValueError(f"level must lie in (0, 1), got {level}")
        low_index = int(np.searchsorted(self.lower_cdf, level, side="left"))
        high_index = int(np.searchsorted(self.upper_cdf, level, side="left"))
        last = self.grid.size - 1
        return (
            float(self.grid[min(low_index, last)]),
            float(self.grid[min(high_index, last)]),
        )

    @property
    def full_probability(self) -> tuple[float, float]:
        """Bracket on ``Pr{Q = B}`` — the overflow-reset probability."""
        return (float(self.lower_pmf[-1]), float(self.upper_pmf[-1]))

    @property
    def empty_probability(self) -> tuple[float, float]:
        """Bracket on ``Pr{Q = 0}`` — the underflow-reset probability.

        Note the ordering flips: the upper-bound *chain* sits higher, so it
        gives the *smaller* probability of an empty queue.
        """
        return (float(self.upper_pmf[0]), float(self.lower_pmf[0]))

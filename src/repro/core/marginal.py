"""Discrete marginal distribution of the fluid rate (the paper's Pi and Lambda).

The modulated fluid source holds a rate drawn i.i.d. from a finite set
``{lambda_1 < ... < lambda_M}`` with probabilities ``pi_i``.  This module
provides the :class:`DiscreteMarginal` container plus every marginal
manipulation the paper's experiments need:

* fitting from a trace as a constant-bin-size histogram (Section III,
  "We set the number of bins to 50 in all experiments");
* the *scaling* transform ``lambda_i' = mean + a (lambda_i - mean)``
  (second set of experiments, Fig. 10/12/13);
* the *superposition* transform — the n-fold convolution of the marginal
  renormalized to the original mean, modeling n multiplexed streams with
  per-stream buffer and service kept constant (Fig. 11).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.validation import (
    as_float_array,
    check_positive,
    check_probability_vector,
)

__all__ = ["DiscreteMarginal"]

_COUNTED_LEVELS = 8
"""Most levels :meth:`DiscreteMarginal.sample` places by counting.

Counting takes one pass over the draws per level: on ~10M draws it takes
0.5x ``Generator.choice``'s time at 2-3 levels and 0.73x at 8, and the
two cost the same near 13 levels."""


@dataclass(frozen=True)
class DiscreteMarginal:
    """Finite discrete distribution of the fluid rate.

    Parameters
    ----------
    rates:
        Strictly increasing, non-negative rate levels ``lambda_i`` (e.g. in
        Mb/s).
    probs:
        Probabilities ``pi_i`` (non-negative, summing to one within 1e-6;
        renormalized exactly on construction).

    Examples
    --------
    >>> m = DiscreteMarginal(rates=[0.0, 2.0], probs=[0.5, 0.5])
    >>> m.mean
    1.0
    >>> m.variance
    1.0
    """

    rates: np.ndarray
    probs: np.ndarray

    def __post_init__(self) -> None:
        rates = as_float_array("rates", self.rates)
        probs = check_probability_vector("probs", self.probs)
        if rates.shape != probs.shape:
            raise ValueError(
                f"rates and probs must have the same length, got {rates.size} and {probs.size}"
            )
        if np.any(rates < 0.0):
            raise ValueError("rates must be non-negative")
        if rates.size > 1 and np.any(np.diff(rates) <= 0.0):
            raise ValueError("rates must be strictly increasing")
        rates.flags.writeable = False
        probs.flags.writeable = False
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "probs", probs)

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def from_samples(cls, samples: np.ndarray, bins: int = 50) -> "DiscreteMarginal":
        """Fit a constant-bin-size histogram marginal from rate samples.

        This is the paper's procedure for matching a trace: "the marginal
        distribution vectors Pi and the rate matrices Lambda are simply
        obtained from a constant bin-size histogram of the traces", with 50
        bins by default.  Each bin is represented by its center rate; empty
        bins are dropped so the solver never carries zero-probability states.
        """
        samples = np.asarray(samples, dtype=np.float64).ravel()
        if samples.size == 0:
            raise ValueError("samples must not be empty")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite")
        if np.any(samples < 0.0):
            raise ValueError("rate samples must be non-negative")
        if bins < 1:
            raise ValueError(f"bins must be >= 1, got {bins}")
        if samples.max() == samples.min():
            # Constant trace: one atom at the observed rate.
            return cls(rates=[float(samples[0])], probs=[1.0])
        counts, edges = np.histogram(samples, bins=bins)
        centers = 0.5 * (edges[:-1] + edges[1:])
        keep = counts > 0
        if keep.sum() == 1:
            # Degenerate trace (constant rate): represent it as one atom.
            return cls(rates=centers[keep], probs=np.array([1.0]))
        return cls(rates=centers[keep], probs=counts[keep] / counts.sum())

    @classmethod
    def two_state(cls, low: float, high: float, prob_high: float) -> "DiscreteMarginal":
        """Convenience constructor for the familiar on/off special case."""
        prob_high = float(prob_high)
        if not (0.0 < prob_high < 1.0):
            raise ValueError(f"prob_high must be strictly between 0 and 1, got {prob_high}")
        return cls(rates=[float(low), float(high)], probs=[1.0 - prob_high, prob_high])

    # ------------------------------------------------------------------ #
    # moments
    # ------------------------------------------------------------------ #

    @property
    def size(self) -> int:
        """Number of rate levels M."""
        return int(self.rates.size)

    @property
    def mean(self) -> float:
        """Mean fluid rate ``Pi Lambda 1^T`` (paper Eq. 2)."""
        return float(self.probs @ self.rates)

    @property
    def second_moment(self) -> float:
        """``E[lambda^2] = Pi Lambda^2 1^T``."""
        return float(self.probs @ self.rates**2)

    @property
    def variance(self) -> float:
        """Variance ``sigma^2`` of the fluid rate (paper Eq. 4)."""
        return max(0.0, self.second_moment - self.mean**2)

    @property
    def std(self) -> float:
        """Standard deviation of the fluid rate."""
        return float(np.sqrt(self.variance))

    @property
    def peak(self) -> float:
        """Largest rate level."""
        return float(self.rates[-1])

    @property
    def trough(self) -> float:
        """Smallest rate level."""
        return float(self.rates[0])

    def cdf(self, x: np.ndarray | float) -> np.ndarray | float:
        """``Pr{lambda <= x}``."""
        x_arr = np.asarray(x, dtype=np.float64)
        cumulative = np.concatenate([[0.0], np.cumsum(self.probs)])
        idx = np.searchsorted(self.rates, x_arr, side="right")
        out = cumulative[idx]
        return out if np.ndim(x) else float(out)

    def quantile(self, level: np.ndarray | float) -> np.ndarray | float:
        """Smallest rate whose cdf reaches ``level`` (generalized inverse)."""
        q = np.asarray(level, dtype=np.float64)
        if np.any((q < 0.0) | (q > 1.0)):
            raise ValueError("quantile levels must lie in [0, 1]")
        cumulative = np.cumsum(self.probs)
        idx = np.minimum(
            np.searchsorted(cumulative, q, side="left"), self.rates.size - 1
        )
        out = self.rates[idx]
        return out if np.ndim(level) else float(out)

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``size`` i.i.d. rates, the same draws as ``rng.choice``.

        ``Generator.choice(rates, size, p=probs)`` draws one uniform per
        sample and binary-searches the normalized cdf for the first level
        above it.  With few levels, counting the levels at or below each
        uniform finds the same index in one vectorized pass per level, so
        the rates, and the generator state after them, match bit for bit.
        """
        if size < 0:
            raise ValueError(f"size must be non-negative, got {size}")
        if self.rates.size > _COUNTED_LEVELS:
            return rng.choice(self.rates, size=size, p=self.probs)
        cdf = np.cumsum(self.probs)
        cdf /= cdf[-1]
        uniforms = rng.random(size)
        index = np.zeros(size, dtype=np.intp)
        for level in cdf[:-1]:  # no uniform reaches the last level, 1.0
            index += uniforms >= level
        return self.rates[index]

    # ------------------------------------------------------------------ #
    # the paper's marginal transforms
    # ------------------------------------------------------------------ #

    def scaled(self, factor: float, clip_negative: bool = True) -> "DiscreteMarginal":
        """Scale the spread of the marginal around its mean by ``factor``.

        Implements the paper's first transformation: "replace lambda_i with
        lambda_i' = mean + factor (lambda_i - mean)", which multiplies the
        standard deviation by ``factor`` while keeping the mean constant.

        Factors above one can push the smallest levels negative; with
        ``clip_negative=True`` (default) those are clipped to zero and the
        whole vector is rescaled multiplicatively to restore the mean (a
        small, documented deviation — the paper's traces never hit this for
        the factors it sweeps).  With ``clip_negative=False`` a negative
        level raises :class:`ValueError`.
        """
        factor = check_positive("factor", factor)
        mean = self.mean
        new_rates = mean + factor * (self.rates - mean)
        if np.any(new_rates < 0.0):
            if not clip_negative:
                raise ValueError(
                    "scaling produced negative rates; pass clip_negative=True to clip"
                )
            new_rates = np.maximum(new_rates, 0.0)
            shifted_mean = float(self.probs @ new_rates)
            if shifted_mean > 0.0:
                new_rates = new_rates * (mean / shifted_mean)
        return _merge_duplicate_rates(new_rates, self.probs)

    def superposed(self, streams: int, max_levels: int = 256) -> "DiscreteMarginal":
        """Marginal of the average of ``streams`` independent copies.

        Implements the paper's second transformation: "convolve the original
        distribution n times and renormalize it to the original mean", i.e.
        the superposition of n streams with per-stream buffer and service
        rate held constant.  The exact convolution support grows linearly in
        ``streams``; if it exceeds ``max_levels`` the result is re-binned to
        ``max_levels`` constant-width bins (probability-weighted centers) to
        keep downstream solves cheap.
        """
        if streams < 1:
            raise ValueError(f"streams must be >= 1, got {streams}")
        if streams == 1:
            return self
        pmf_rates = self.rates
        pmf_probs = self.probs
        # Fold one stream at a time on the outer-sum grid, merging duplicate
        # sums as we go; rates need not be uniformly spaced.
        sum_rates = pmf_rates.copy()
        sum_probs = pmf_probs.copy()
        for _ in range(streams - 1):
            grid = sum_rates[:, None] + pmf_rates[None, :]
            weight = sum_probs[:, None] * pmf_probs[None, :]
            merged = _merge_duplicate_rates(grid.ravel(), weight.ravel(), renormalize=True)
            sum_rates, sum_probs = merged.rates, merged.probs
            if sum_rates.size > 4 * max_levels:
                rebinned = _rebin(sum_rates, sum_probs, max_levels)
                sum_rates, sum_probs = rebinned.rates, rebinned.probs
        averaged = _merge_duplicate_rates(sum_rates / streams, sum_probs, renormalize=True)
        if averaged.size > max_levels:
            averaged = _rebin(averaged.rates, averaged.probs, max_levels)
        return averaged

    def convolved(self, other: "DiscreteMarginal", max_levels: int = 256) -> "DiscreteMarginal":
        """Marginal of the *sum* of two independent rates (heterogeneous mux).

        Unlike :meth:`superposed`, no renormalization is applied: the mean
        of the result is the sum of the means — this models adding a whole
        second stream on the same link (e.g. multiplexing a video and an
        Ethernet source).  Results wider than ``max_levels`` are re-binned.
        """
        grid = self.rates[:, None] + other.rates[None, :]
        weight = self.probs[:, None] * other.probs[None, :]
        merged = _merge_duplicate_rates(grid.ravel(), weight.ravel(), renormalize=True)
        if merged.size > max_levels:
            merged = _rebin(merged.rates, merged.probs, max_levels)
        return merged

    def rebinned(self, levels: int) -> "DiscreteMarginal":
        """Coarsen the marginal to at most ``levels`` constant-width bins."""
        if levels < 1:
            raise ValueError(f"levels must be >= 1, got {levels}")
        if self.size <= levels:
            return self
        return _rebin(self.rates, self.probs, levels)

    def shifted(self, offset: float) -> "DiscreteMarginal":
        """Translate all rate levels by ``offset`` (clipping at zero is the caller's job)."""
        new_rates = self.rates + float(offset)
        if np.any(new_rates < 0.0):
            raise ValueError("shift produced negative rates")
        return DiscreteMarginal(rates=new_rates, probs=self.probs)


def _merge_duplicate_rates(
    rates: np.ndarray,
    probs: np.ndarray,
    renormalize: bool = False,
    tolerance: float = 1e-12,
) -> DiscreteMarginal:
    """Sort levels and merge rates closer than ``tolerance`` (relative to the span)."""
    order = np.argsort(rates)
    rates = np.asarray(rates, dtype=np.float64)[order]
    probs = np.asarray(probs, dtype=np.float64)[order]
    span = max(rates[-1] - rates[0], 1.0)
    merged_rates: list[float] = []
    merged_probs: list[float] = []
    for rate, prob in zip(rates, probs):
        if merged_rates and rate - merged_rates[-1] <= tolerance * span:
            total = merged_probs[-1] + prob
            if total > 0.0:
                merged_rates[-1] = (merged_rates[-1] * merged_probs[-1] + rate * prob) / total
            merged_probs[-1] = total
        else:
            merged_rates.append(float(rate))
            merged_probs.append(float(prob))
    probs_arr = np.asarray(merged_probs)
    keep = probs_arr > 0.0
    probs_arr = probs_arr[keep]
    rates_arr = np.asarray(merged_rates)[keep]
    if renormalize:
        probs_arr = probs_arr / probs_arr.sum()
    return DiscreteMarginal(rates=rates_arr, probs=probs_arr)


def _rebin(rates: np.ndarray, probs: np.ndarray, levels: int) -> DiscreteMarginal:
    """Re-bin a discrete law onto ``levels`` constant-width bins.

    Each output level is the probability-weighted mean of the input levels
    that fall in its bin, so the overall mean is preserved exactly.
    """
    low, high = float(rates[0]), float(rates[-1])
    if high <= low:
        return DiscreteMarginal(rates=[low], probs=[1.0])
    edges = np.linspace(low, high, levels + 1)
    idx = np.clip(np.searchsorted(edges, rates, side="right") - 1, 0, levels - 1)
    bin_probs = np.zeros(levels)
    bin_mass = np.zeros(levels)
    np.add.at(bin_probs, idx, probs)
    np.add.at(bin_mass, idx, probs * rates)
    keep = bin_probs > 0.0
    centers = bin_mass[keep] / bin_probs[keep]
    return _merge_duplicate_rates(centers, bin_probs[keep], renormalize=True)

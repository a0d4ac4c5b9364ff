"""Source adapters: ``repro.traffic`` generators as arrival processes.

Every flow in a topology is driven by a :class:`RateSource`: an object
that, given the flow's private random stream, yields piecewise-constant
``(duration, rate)`` segments.  The simulator turns each segment start
into a :data:`~repro.netsim.events.RATE_CHANGE` event, so anything that
can be expressed as a piecewise-constant fluid rate — the paper's
renewal source, a binned fGn/FARIMA path, an on/off aggregate, M/G/∞
session counts, the synthetic MTV and Bellcore traces — plugs in
through one interface.

Two adapters cover the repo's generator families:

* :class:`RenewalSource` — any renewal model
  (:class:`~repro.core.source.RenewalFluidSource`): the paper's cutoff
  fluid source or Clegg's Markov-modulated one, its i.i.d.
  ``(T_n, lambda_n)`` pairs sampled lazily, 1024 at a time.  A one-node topology fed by the
  paper's source is *exactly* the queue of Eq. 9.
* :class:`SegmentSource` — a *known* path of explicit ``(durations,
  rates)``: the netsim-vs-solver oracle replays one sampled renewal path
  through it and through Eq. 9, and the tests feed hand-built paths.
  :meth:`SegmentSource.from_array` wraps a pre-binned rate array, such
  as the output of a ``repro.traffic`` generator, as segments one bin
  wide (negative rates, which Gaussian families produce, are clipped at
  zero — the same convention the shuffle experiments use); the
  matched-models oracle feeds its family traces through it.  A path is
  finite: once exhausted, its last rate holds.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from repro.core.source import RenewalFluidSource
from repro.core.validation import check_positive

__all__ = [
    "RateSource",
    "RenewalSource",
    "SegmentSource",
]

_CHUNK = 1024
"""Pairs a :class:`RenewalSource` draws per ``sample_path`` call."""


class RateSource:
    """Interface every flow driver implements.

    ``segments(rng)`` yields ``(duration, rate)`` pairs; a finite stream
    means the last rate holds for the rest of the horizon.  ``mean_rate``
    is the long-run average the presets use to dimension service rates.
    """

    mean_rate: float

    def segments(self, rng: np.random.Generator) -> Iterator[tuple[float, float]]:
        raise NotImplementedError


@dataclass(frozen=True)
class SegmentSource(RateSource):
    """An explicit, finite ``(durations, rates)`` path.

    The path is fixed before the source is built, so a
    :class:`SegmentSource` is a *value*: simulating the same topology
    twice replays the identical rate path regardless of the simulator
    seed (the flow's private stream is simply unused).
    """

    durations: tuple[float, ...]
    rates: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.durations) != len(self.rates) or not self.durations:
            raise ValueError("durations and rates must be equal-length and non-empty")
        if min(self.durations) <= 0.0:
            raise ValueError("segment durations must be positive")
        if min(self.rates) < 0.0:
            raise ValueError("segment rates must be non-negative")

    @property
    def mean_rate(self) -> float:  # type: ignore[override]
        total = sum(self.durations)
        return sum(d * r for d, r in zip(self.durations, self.rates)) / total

    @property
    def total_time(self) -> float:
        """Time span covered before the last rate starts holding."""
        return float(sum(self.durations))

    def segments(self, rng: np.random.Generator) -> Iterator[tuple[float, float]]:
        return iter(zip(self.durations, self.rates))

    @classmethod
    def from_array(cls, rates: np.ndarray, bin_width: float) -> "SegmentSource":
        """A binned rate array as one segment per bin (rates clipped at zero)."""
        bin_width = check_positive("bin_width", bin_width)
        clipped = np.clip(np.asarray(rates, dtype=np.float64), 0.0, None)
        return cls(durations=(bin_width,) * clipped.size, rates=tuple(clipped.tolist()))


@dataclass(frozen=True)
class RenewalSource(RateSource):
    """A renewal model's i.i.d. ``(duration, rate)`` pairs, sampled lazily.

    Each ``sample_path`` call draws 1024 pairs from the wrapped model;
    the stream is infinite, so a flow driven by it never runs dry before
    the horizon.
    """

    source: RenewalFluidSource

    @property
    def mean_rate(self) -> float:  # type: ignore[override]
        return self.source.mean_rate

    def segments(self, rng: np.random.Generator) -> Iterator[tuple[float, float]]:
        while True:
            path = self.source.sample_path(_CHUNK, rng)
            yield from zip(path.durations.tolist(), path.rates.tolist())


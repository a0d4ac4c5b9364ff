"""Source adapters: ``repro.traffic`` generators as arrival processes.

Every flow in a topology is driven by a :class:`RateSource`: an object
that, given the flow's private random stream, yields piecewise-constant
``(duration, rate)`` segments.  The simulator turns each segment start
into a :data:`~repro.netsim.events.RATE_CHANGE` event, so anything that
can be expressed as a piecewise-constant fluid rate — the paper's
renewal source, a binned fGn/FARIMA path, an on/off aggregate, M/G/∞
session counts, the synthetic MTV and Bellcore traces — plugs in
through one interface.

Three adapters cover the repo's generator families:

* :class:`RenewalSource` — the paper's cutoff fluid source itself: i.i.d.
  ``(T_n, lambda_n)`` renewal epochs sampled lazily in chunks; a one-node
  topology fed by it is *exactly* the queue of Eq. 9.
* :class:`TraceSource` — any pre-binned rate array, such as the output
  of a ``repro.traffic`` generator, wrapped by
  :meth:`TraceSource.from_array` (negative rates, which Gaussian families
  produce, are clipped at zero — the same convention the shuffle
  experiments use).  The matched-models oracle feeds its family traces
  through it.  A trace is finite: once exhausted, the last rate holds.
* :class:`SegmentSource` — explicit ``(durations, rates)`` arrays, the
  adapter that feeds a *known* path through the network: the
  netsim-vs-solver oracle replays one sampled renewal path through it
  and through Eq. 9, and the tests feed hand-built paths.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from repro.core.source import CutoffFluidSource
from repro.core.validation import check_positive

__all__ = [
    "RateSource",
    "RenewalSource",
    "SegmentSource",
    "TraceSource",
]


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
    """An explicit, finite ``(durations, rates)`` path (netsim oracle and tests)."""

    durations: tuple[float, ...]
    rates: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.durations) != len(self.rates) or not self.durations:
            raise ValueError("durations and rates must be equal-length and non-empty")
        if any(d <= 0.0 for d in self.durations):
            raise ValueError("segment durations must be positive")
        if any(r < 0.0 for r in self.rates):
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


@dataclass(frozen=True)
class RenewalSource(RateSource):
    """The paper's modulated fluid renewal process, sampled lazily.

    Each chunk draws ``chunk`` i.i.d. ``(T_n, lambda_n)`` pairs from the
    wrapped :class:`~repro.core.source.CutoffFluidSource`; the stream is
    infinite, so a flow driven by it never runs dry before the horizon.
    """

    source: CutoffFluidSource
    chunk: int = 1024

    def __post_init__(self) -> None:
        if self.chunk < 1:
            raise ValueError(f"chunk must be >= 1, got {self.chunk}")

    @property
    def mean_rate(self) -> float:  # type: ignore[override]
        return self.source.mean_rate

    def segments(self, rng: np.random.Generator) -> Iterator[tuple[float, float]]:
        while True:
            path = self.source.sample_path(self.chunk, rng)
            yield from zip(path.durations.tolist(), path.rates.tolist())


@dataclass(frozen=True)
class TraceSource(RateSource):
    """A binned rate trace as a finite piecewise-constant source.

    The trace is generated before the source is built, so a
    :class:`TraceSource` is a *value*: simulating the same topology twice
    replays the identical rate path regardless of the simulator seed (the
    flow's private stream is simply unused).
    """

    rates: tuple[float, ...]
    bin_width: float

    def __post_init__(self) -> None:
        if not self.rates:
            raise ValueError("rates must be non-empty")
        if any(r < 0.0 for r in self.rates):
            raise ValueError("rates must be non-negative")
        check_positive("bin_width", self.bin_width)

    @property
    def mean_rate(self) -> float:  # type: ignore[override]
        return float(sum(self.rates) / len(self.rates))

    @property
    def total_time(self) -> float:
        """Time span covered before the last rate starts holding."""
        return self.bin_width * len(self.rates)

    def segments(self, rng: np.random.Generator) -> Iterator[tuple[float, float]]:
        return ((self.bin_width, rate) for rate in self.rates)

    @classmethod
    def from_array(cls, rates: np.ndarray, bin_width: float) -> "TraceSource":
        """Wrap a raw binned rate array (clipped at zero)."""
        clipped = np.clip(np.asarray(rates, dtype=np.float64), 0.0, None)
        return cls(rates=tuple(clipped.tolist()), bin_width=float(bin_width))

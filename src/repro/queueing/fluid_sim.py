"""Finite-buffer fluid-queue simulators.

Two simulators, both exact for their input class:

* :func:`simulate_trace_queue` / :func:`simulate_trace_queue_multi` —
  discrete-time fluid queue driven by a binned rate trace (the paper's
  shuffle experiments, Figs. 7/8/14): per bin of length ``dt`` the queue
  gains ``rate * dt``, drains ``c * dt``, clips at 0 and B, and the
  overflow is counted as lost work.  The multi-buffer variant advances a
  whole vector of buffer sizes through one pass over the trace.

* :func:`simulate_source_queue` — event-driven Monte Carlo of the paper's
  *model* queue: i.i.d. ``(T_n, lambda_n)`` pairs drive the recursion
  ``Q(n+1) = max(0, min(B, Q(n) + W(n)))`` (Eq. 9) and lost work is
  accumulated per interval.  This is the ground truth the bounded
  convolution solver is validated against in the integration tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.source import CutoffFluidSource
from repro.core.validation import check_nonnegative, check_positive

__all__ = [
    "TraceQueueResult",
    "simulate_trace_queue",
    "simulate_trace_queue_multi",
    "simulate_source_queue",
    "inter_reset_times",
]


@dataclass(frozen=True)
class TraceQueueResult:
    """Outcome of one trace-driven queue simulation.

    Attributes
    ----------
    loss_rate:
        Lost work over arrived work.
    lost_work, arrived_work:
        The raw volumes behind the ratio.
    mean_occupancy:
        Time-average queue content.
    full_fraction, empty_fraction:
        Fraction of bins ending with a full (resp. empty) buffer — the
        "resets" of the correlation-horizon argument.
    """

    loss_rate: float
    lost_work: float
    arrived_work: float
    mean_occupancy: float
    full_fraction: float
    empty_fraction: float


def _clipped_walk(
    increments: np.ndarray, buffer_size: float, occupancy: float
) -> tuple[float, float, float, int, int]:
    """Walk ``Q <- min(B, max(0, Q + w))`` from ``occupancy`` over ``increments``.

    Returns the final occupancy, the work lost above ``B``, the sum of the
    occupancies after each step, and the number of steps that ended full
    (by overflowing) and empty.
    """
    lost = 0.0
    occupancy_sum = 0.0
    full = 0
    empty = 0
    for increment in increments:
        occupancy += increment
        if occupancy > buffer_size:
            lost += occupancy - buffer_size
            occupancy = buffer_size
            full += 1
        elif occupancy <= 0.0:
            occupancy = 0.0
            empty += 1
        occupancy_sum += occupancy
    return occupancy, lost, occupancy_sum, full, empty


def simulate_trace_queue(
    rates: np.ndarray,
    bin_width: float,
    service_rate: float,
    buffer_size: float,
    initial_occupancy: float = 0.0,
) -> TraceQueueResult:
    """Run a binned rate trace through a finite-buffer fluid queue."""
    rates = np.asarray(rates, dtype=np.float64)
    if rates.ndim != 1 or rates.size == 0:
        raise ValueError("rates must be a non-empty 1-D array")
    bin_width = check_positive("bin_width", bin_width)
    service_rate = check_positive("service_rate", service_rate)
    buffer_size = check_nonnegative("buffer_size", buffer_size)
    if not (0.0 <= initial_occupancy <= buffer_size):
        raise ValueError("initial_occupancy must lie in [0, buffer_size]")

    increments = (rates - service_rate) * bin_width
    _, lost, occupancy_sum, full_bins, empty_bins = _clipped_walk(
        increments, buffer_size, initial_occupancy
    )
    arrived = float(rates.sum() * bin_width)
    n = rates.size
    return TraceQueueResult(
        loss_rate=lost / arrived if arrived > 0.0 else 0.0,
        lost_work=lost,
        arrived_work=arrived,
        mean_occupancy=occupancy_sum / n,
        full_fraction=full_bins / n,
        empty_fraction=empty_bins / n,
    )


def simulate_trace_queue_multi(
    rates: np.ndarray,
    bin_width: float,
    service_rate: float,
    buffer_sizes: np.ndarray,
    initial_occupancy: float = 0.0,
) -> np.ndarray:
    """Loss rates for a whole vector of buffer sizes in one trace pass.

    The queue state is a vector indexed like ``buffer_sizes``; each time
    step applies the same clipped-random-walk update elementwise, so the
    cost is one pass over the trace regardless of how many buffer sizes
    are evaluated.
    """
    rates = np.asarray(rates, dtype=np.float64)
    if rates.ndim != 1 or rates.size == 0:
        raise ValueError("rates must be a non-empty 1-D array")
    buffers = np.asarray(buffer_sizes, dtype=np.float64)
    if buffers.ndim != 1 or buffers.size == 0:
        raise ValueError("buffer_sizes must be a non-empty 1-D array")
    if np.any(buffers < 0.0):
        raise ValueError("buffer_sizes must be non-negative")
    bin_width = check_positive("bin_width", bin_width)
    service_rate = check_positive("service_rate", service_rate)
    occupancy = np.full(buffers.shape, float(initial_occupancy))
    if np.any(occupancy > buffers):
        raise ValueError("initial_occupancy exceeds some buffer size")

    increments = (rates - service_rate) * bin_width
    lost = np.zeros_like(buffers)
    for increment in increments:
        occupancy += increment
        overflow = occupancy - buffers
        np.clip(overflow, 0.0, None, out=overflow)
        lost += overflow
        occupancy -= overflow
        np.clip(occupancy, 0.0, None, out=occupancy)
    arrived = float(rates.sum() * bin_width)
    if arrived <= 0.0:
        return np.zeros_like(buffers)
    return lost / arrived


def inter_reset_times(
    rates: np.ndarray,
    bin_width: float,
    service_rate: float,
    buffer_size: float,
) -> np.ndarray:
    """Times between buffer *resets* (emptying or filling) along a trace.

    The correlation-horizon argument (paper Section IV) rests on the
    resetting effect: "the buffer 'forgets' about the past as soon as it
    is either empty or full", and Eq. 26 estimates the horizon as the
    interval over which a reset happens with high probability.  This
    function measures those intervals directly: it runs the trace through
    the queue and returns the durations (seconds) between consecutive
    reset events (entering the empty or the full state).

    An empty return means the queue never reset more than once over the
    trace — the buffer is so large (or the trace so short) that the
    horizon exceeds the observation window.
    """
    rates = np.asarray(rates, dtype=np.float64)
    if rates.ndim != 1 or rates.size == 0:
        raise ValueError("rates must be a non-empty 1-D array")
    bin_width = check_positive("bin_width", bin_width)
    service_rate = check_positive("service_rate", service_rate)
    buffer_size = check_positive("buffer_size", buffer_size)

    increments = (rates - service_rate) * bin_width
    occupancy = 0.5 * buffer_size  # start mid-buffer: no spurious reset at t=0
    reset_bins: list[int] = []
    was_boundary = False
    for index, increment in enumerate(increments):
        occupancy += increment
        at_boundary = False
        if occupancy >= buffer_size:
            occupancy = buffer_size
            at_boundary = True
        elif occupancy <= 0.0:
            occupancy = 0.0
            at_boundary = True
        # Count only *entries* into a boundary, not every bin spent there:
        # consecutive full bins are one reset event.
        if at_boundary and not was_boundary:
            reset_bins.append(index)
        was_boundary = at_boundary
    if len(reset_bins) < 2:
        return np.empty(0)
    return np.diff(np.asarray(reset_bins, dtype=np.float64)) * bin_width


def simulate_source_queue(
    source: CutoffFluidSource,
    service_rate: float,
    buffer_size: float,
    intervals: int,
    rng: np.random.Generator,
    warmup_intervals: int = 0,
) -> TraceQueueResult:
    """Monte Carlo of the model queue at arrival epochs (Eq. 9).

    Parameters
    ----------
    source:
        The fluid source to sample ``(T_n, lambda_n)`` from.
    service_rate, buffer_size:
        Queue parameters.
    intervals:
        Number of measured interarrival intervals.
    rng:
        Source of randomness.
    warmup_intervals:
        Intervals run before measurement starts (reduces the empty-start
        bias for large buffers).
    """
    if intervals < 1:
        raise ValueError(f"intervals must be >= 1, got {intervals}")
    if warmup_intervals < 0:
        raise ValueError("warmup_intervals must be >= 0")
    service_rate = check_positive("service_rate", service_rate)
    buffer_size = check_nonnegative("buffer_size", buffer_size)

    total = warmup_intervals + intervals
    durations = source.interarrival.sample(total, rng)
    rates = source.marginal.sample(total, rng)
    increments = durations * (rates - service_rate)

    occupancy = _clipped_walk(increments[:warmup_intervals], buffer_size, 0.0)[0]
    _, lost, occupancy_sum, full_count, empty_count = _clipped_walk(
        increments[warmup_intervals:], buffer_size, occupancy
    )
    arrived = float(
        (durations[warmup_intervals:] * rates[warmup_intervals:]).sum()
    )
    return TraceQueueResult(
        loss_rate=lost / arrived if arrived > 0.0 else 0.0,
        lost_work=lost,
        arrived_work=arrived,
        mean_occupancy=occupancy_sum / intervals,
        full_fraction=full_count / intervals,
        empty_fraction=empty_count / intervals,
    )

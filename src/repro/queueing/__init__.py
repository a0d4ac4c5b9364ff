"""Queueing substrate: simulators, MMFQ spectral solver, Markov comparators."""

from repro.queueing.cts import (
    DominantTimeScale,
    dominant_time_scale,
    gaussian_overflow_exponent,
)
from repro.queueing.fluid_sim import (
    TraceQueueResult,
    simulate_source_queue,
    simulate_trace_queue,
    simulate_trace_queue_multi,
)
from repro.queueing.markov import (
    HyperexponentialFit,
    fit_hyperexponential,
    fit_multiscale_source,
)
from repro.queueing.dimensioning import (
    MultiplexingGain,
    multiplexing_gain,
    required_buffer,
    required_service_rate,
)
from repro.queueing.mmfq import (
    MarkovFluidModel,
    mmfq_loss_rate,
    mmfq_overflow_probability,
)

__all__ = [
    "required_service_rate",
    "required_buffer",
    "multiplexing_gain",
    "MultiplexingGain",
    "mmfq_overflow_probability",
    "TraceQueueResult",
    "simulate_trace_queue",
    "simulate_trace_queue_multi",
    "simulate_source_queue",
    "MarkovFluidModel",
    "mmfq_loss_rate",
    "HyperexponentialFit",
    "fit_hyperexponential",
    "fit_multiscale_source",
    "DominantTimeScale",
    "dominant_time_scale",
    "gaussian_overflow_exponent",
]

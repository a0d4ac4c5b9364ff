"""repro — reproduction of Grossglauser & Bolot (SIGCOMM '96).

*On the Relevance of Long-Range Dependence in Network Traffic.*

The package implements the paper's cutoff-correlated modulated fluid
traffic model, the bounded convolution solver for the loss rate of a
finite-buffer fluid queue, the correlation-horizon estimators, and every
substrate the evaluation needs: LRD trace synthesis, Hurst estimation,
trace-driven queue simulation, external shuffling, and Markov-modulated
fluid-queue comparators.

Quickstart
----------
>>> import math
>>> from repro import CutoffFluidSource, DiscreteMarginal, FluidQueue
>>> marginal = DiscreteMarginal(rates=[0.0, 2.0], probs=[0.5, 0.5])
>>> source = CutoffFluidSource.from_hurst(
...     marginal=marginal, hurst=0.8, mean_interval=0.05, cutoff=10.0)
>>> queue = FluidQueue.from_normalized(
...     source=source, utilization=0.8, normalized_buffer=0.5)
>>> result = queue.loss_rate()
>>> 0.0 <= result.lower <= result.upper
True
"""

from repro.core import (
    CutoffFluidSource,
    DiscreteMarginal,
    FluidQueue,
    LossRateResult,
    OccupancyBounds,
    SolverConfig,
    SourcePath,
    TruncatedPareto,
    WorkloadLaw,
    batch_loss_rates,
    correlation_horizon,
    correlation_horizon_clt,
    empirical_horizon,
    expected_overflow,
    norros_horizon,
    solve_loss_rate,
    zero_buffer_loss_rate,
)

__version__ = "1.0.0"

__all__ = [
    "TruncatedPareto",
    "DiscreteMarginal",
    "CutoffFluidSource",
    "SourcePath",
    "WorkloadLaw",
    "FluidQueue",
    "SolverConfig",
    "solve_loss_rate",
    "batch_loss_rates",
    "LossRateResult",
    "OccupancyBounds",
    "expected_overflow",
    "zero_buffer_loss_rate",
    "correlation_horizon",
    "correlation_horizon_clt",
    "norros_horizon",
    "empirical_horizon",
    "__version__",
]

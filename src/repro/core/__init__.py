"""The paper's primary contribution: cutoff-correlated fluid model + solver.

Public surface:

* :class:`~repro.core.truncated_pareto.TruncatedPareto` — interarrival law.
* :class:`~repro.core.marginal.DiscreteMarginal` — fluid-rate marginal and
  its transforms (scaling, superposition, histogram fitting).
* :class:`~repro.core.source.CutoffFluidSource` — the modulated fluid source.
* :class:`~repro.core.workload.WorkloadLaw` — per-interval workload increment.
* :class:`~repro.core.solver.FluidQueue` / :func:`~repro.core.solver.solve_loss_rate`
  — the bounded convolution solver.
* :mod:`~repro.core.horizon` — correlation-horizon estimators.
"""

from repro.core.horizon import (
    correlation_horizon,
    correlation_horizon_clt,
    empirical_horizon,
    norros_horizon,
)
from repro.core.loss import expected_overflow, zero_buffer_loss_rate
from repro.core.marginal import DiscreteMarginal
from repro.core.results import LossRateResult, OccupancyBounds
from repro.core.solver import FluidQueue, SolverConfig, batch_loss_rates, solve_loss_rate
from repro.core.source import CutoffFluidSource, SourcePath
from repro.core.truncated_pareto import TruncatedPareto
from repro.core.workload import WorkloadLaw

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
]

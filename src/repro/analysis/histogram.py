"""Marginal summary statistics of rate traces (paper Section III).

The width measures used when comparing marginals (Fig. 3 / Fig. 9).  The
run-length calibration of theta lives in
:meth:`~repro.traffic.trace.Trace.mean_epoch_duration`.
"""

from __future__ import annotations

from repro.core.marginal import DiscreteMarginal

__all__ = [
    "coefficient_of_variation",
    "marginal_summary",
]


def coefficient_of_variation(marginal: DiscreteMarginal) -> float:
    """Std over mean — the width measure behind the Fig. 9 comparison."""
    mean = marginal.mean
    if mean <= 0.0:
        raise ValueError("marginal mean must be positive")
    return marginal.std / mean


def marginal_summary(marginal: DiscreteMarginal) -> dict[str, float]:
    """Summary row for marginal-comparison tables (Fig. 3 benchmark)."""
    return {
        "levels": float(marginal.size),
        "mean": marginal.mean,
        "std": marginal.std,
        "cv": coefficient_of_variation(marginal),
        "min": marginal.trough,
        "max": marginal.peak,
        "peak_to_mean": marginal.peak / marginal.mean if marginal.mean > 0 else float("inf"),
    }

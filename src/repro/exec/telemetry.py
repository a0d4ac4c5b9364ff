"""Per-cell timing and convergence telemetry for sweep execution.

Every cell the engine completes — solved or served from the cache —
produces one :class:`CellTelemetry` record.  A :class:`SweepTelemetry`
folds them into running totals: cache hit/miss counts, solver iterations
actually spent (cached cells contribute zero), and wall-clock time.  The
engine invokes an optional progress callback after each cell so
interactive frontends (the CLI) can narrate long sweeps.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from repro.core.results import LossRateResult

__all__ = ["CellTelemetry", "SweepTelemetry", "ProgressCallback"]


@dataclass(frozen=True)
class CellTelemetry:
    """What one grid cell cost.

    Attributes
    ----------
    index:
        Row-major cell index within its plan (or 0 for single solves).
    key:
        Cache key of the task (empty when caching is disabled).
    seconds:
        Wall-clock seconds spent producing the result (0 for cache hits).
    iterations, bins, converged, negligible:
        Copied from the :class:`~repro.core.results.LossRateResult`.
    cached:
        True when the result came from the persistent cache.
    transforms, fft_seconds, boundary_seconds:
        Kernel-level counters copied from the result's
        :class:`~repro.core.results.SolverStats` — how many batched FFT
        operations the solve executed and how its wall-clock time split
        between the convolution kernel and spatial boundary handling.
        Zero for cache hits and trivial (closed-form) results.
    batch_width:
        Widest multi-task kernel stack the solve stepped in (copied from
        :class:`~repro.core.results.SolverStats`).  1 marks a solo solve:
        dispatched alone, planned into a singleton batch, or batched but
        never sharing a refinement level with another member.
    """

    index: int
    key: str
    seconds: float
    iterations: int
    bins: int
    converged: bool
    negligible: bool
    cached: bool
    transforms: int = 0
    fft_seconds: float = 0.0
    boundary_seconds: float = 0.0
    batch_width: int = 1

    @classmethod
    def from_result(
        cls,
        index: int,
        key: str,
        seconds: float,
        result: LossRateResult,
        cached: bool,
    ) -> "CellTelemetry":
        stats = result.stats
        return cls(
            index=index,
            key=key,
            seconds=seconds,
            iterations=result.iterations,
            bins=result.bins,
            converged=result.converged,
            negligible=result.negligible,
            cached=cached,
            transforms=stats.transforms if stats is not None else 0,
            fft_seconds=stats.fft_seconds if stats is not None else 0.0,
            boundary_seconds=stats.boundary_seconds if stats is not None else 0.0,
            batch_width=stats.batch_width if stats is not None else 1,
        )


ProgressCallback = Callable[[int, int, CellTelemetry], None]
"""``progress(done, total, cell)`` — called after every completed cell."""


@dataclass
class SweepTelemetry:
    """Aggregated execution statistics (accumulates across engine runs).

    :meth:`record` folds each cell into running totals and keeps no
    per-cell list, so a long-lived service's telemetry stays a few
    counters however many cells it has recorded.

    Attributes
    ----------
    total_cells, cache_hits:
        Cells recorded, and those served from the persistent cache.
    solver_iterations, fft_transforms, fft_seconds, boundary_seconds:
        Summed over solved cells (cache hits cost zero): convolution
        iterations, batched FFT operations, and seconds in the
        convolution kernel and in spatial boundary handling.
    solve_seconds:
        Wall-clock seconds summed over all cells.
    unconverged_cells:
        Cells whose result did not converge, cached or solved.
    batched_tasks, fallback_solo:
        Solved cells that shared a multi-task kernel stack (width > 1),
        and those that ran alone, with no stack-mate at any level.
    """

    total_cells: int = 0
    cache_hits: int = 0
    solver_iterations: int = 0
    solve_seconds: float = 0.0
    fft_transforms: int = 0
    fft_seconds: float = 0.0
    boundary_seconds: float = 0.0
    unconverged_cells: int = 0
    batched_tasks: int = 0
    fallback_solo: int = 0
    _shapes: dict[int, int] = field(default_factory=dict, repr=False)

    def record(self, cell: CellTelemetry) -> None:
        self.total_cells += 1
        self.solve_seconds += cell.seconds
        if not cell.converged:
            self.unconverged_cells += 1
        if cell.cached:
            self.cache_hits += 1
            return
        self.solver_iterations += cell.iterations
        self.fft_transforms += cell.transforms
        self.fft_seconds += cell.fft_seconds
        self.boundary_seconds += cell.boundary_seconds
        if cell.batch_width > 1:
            self.batched_tasks += 1
            self._shapes[cell.batch_width] = self._shapes.get(cell.batch_width, 0) + 1
        else:
            self.fallback_solo += 1

    @property
    def cache_misses(self) -> int:
        return self.total_cells - self.cache_hits

    def batch_shapes(self) -> dict[int, int]:
        """Histogram ``{stack width: solved cells}`` over batched cells."""
        # Copied before iterating: ``/stats`` reads this on another thread
        # while the engine's thread may add a width.
        return dict(sorted(self._shapes.copy().items()))

    def summary(self) -> dict[str, float]:
        """Flat summary mapping, ready for ``reporting.format_mapping``."""
        return {
            "cells": float(self.total_cells),
            "cache_hits": float(self.cache_hits),
            "cache_misses": float(self.cache_misses),
            "solver_iterations": float(self.solver_iterations),
            "unconverged_cells": float(self.unconverged_cells),
            "solve_seconds": self.solve_seconds,
            "fft_transforms": float(self.fft_transforms),
            "fft_seconds": self.fft_seconds,
            "boundary_seconds": self.boundary_seconds,
            "batched_tasks": float(self.batched_tasks),
            "fallback_solo": float(self.fallback_solo),
        }

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.total_cells} cells "
            f"({self.cache_hits} cached, {self.cache_misses} solved), "
            f"{self.solver_iterations} solver iterations, "
            f"{self.solve_seconds:.2f}s solving"
        )

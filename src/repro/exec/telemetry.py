"""Per-cell timing and convergence telemetry for sweep execution.

Every cell the engine completes — solved or served from the cache —
produces one :class:`CellTelemetry` record.  A :class:`SweepTelemetry`
aggregates them: cache hit/miss counts, solver iterations actually spent
(cached cells contribute zero), and wall-clock time.  The engine invokes
an optional progress callback after each cell so interactive frontends
(the CLI) can narrate long sweeps.
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
    """Aggregated execution statistics (accumulates across engine runs)."""

    cells: list[CellTelemetry] = field(default_factory=list)

    def record(self, cell: CellTelemetry) -> None:
        self.cells.append(cell)

    @property
    def total_cells(self) -> int:
        return len(self.cells)

    @property
    def cache_hits(self) -> int:
        return sum(1 for c in self.cells if c.cached)

    @property
    def cache_misses(self) -> int:
        return sum(1 for c in self.cells if not c.cached)

    @property
    def solver_iterations(self) -> int:
        """Convolution iterations actually performed (cache hits cost zero)."""
        return sum(c.iterations for c in self.cells if not c.cached)

    @property
    def solve_seconds(self) -> float:
        return sum(c.seconds for c in self.cells)

    @property
    def fft_transforms(self) -> int:
        """Batched FFT operations executed across all solved cells."""
        return sum(c.transforms for c in self.cells if not c.cached)

    @property
    def fft_seconds(self) -> float:
        """Seconds in the convolution kernel across all solved cells."""
        return sum(c.fft_seconds for c in self.cells if not c.cached)

    @property
    def boundary_seconds(self) -> float:
        """Seconds in spatial boundary handling across all solved cells."""
        return sum(c.boundary_seconds for c in self.cells if not c.cached)

    @property
    def unconverged_cells(self) -> int:
        return sum(1 for c in self.cells if not c.converged)

    @property
    def batched_tasks(self) -> int:
        """Solved cells that shared a multi-task kernel stack (width > 1)."""
        return sum(1 for c in self.cells if not c.cached and c.batch_width > 1)

    @property
    def fallback_solo(self) -> int:
        """Solved cells that ran alone — no stack-mate at any refinement level."""
        return sum(1 for c in self.cells if not c.cached and c.batch_width <= 1)

    def batch_shapes(self) -> dict[int, int]:
        """Histogram ``{stack width: solved cells}`` over batched cells."""
        shapes: dict[int, int] = {}
        for cell in self.cells:
            if cell.cached or cell.batch_width <= 1:
                continue
            shapes[cell.batch_width] = shapes.get(cell.batch_width, 0) + 1
        return dict(sorted(shapes.items()))

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

"""SweepTelemetry keeps running totals, not a list of every recorded cell."""

from __future__ import annotations

import tracemalloc
from collections import Counter

from repro.exec.telemetry import CellTelemetry, SweepTelemetry


def _cells(count: int) -> list[CellTelemetry]:
    """Cached and solved, converged and not, solo and stacked cells."""
    return [
        CellTelemetry(
            index=i,
            key="",
            seconds=(i % 7) * 1e-3,
            iterations=i % 50,
            bins=64,
            converged=i % 11 != 0,
            negligible=False,
            cached=i % 3 == 0,
            transforms=i % 5,
            fft_seconds=(i % 4) * 1e-4,
            boundary_seconds=(i % 6) * 1e-5,
            batch_width=(1, 1, 2, 4, 8)[i % 5],
        )
        for i in range(count)
    ]


def test_recording_allocates_no_per_cell_state():
    cells = _cells(20_000)
    telemetry = SweepTelemetry()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for cell in cells:
            telemetry.record(cell)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 64 * 1024, grown


def test_counters_equal_a_reference_over_the_same_cells():
    cells = _cells(5_000)
    telemetry = SweepTelemetry()
    for cell in cells:
        telemetry.record(cell)
    solved = [cell for cell in cells if not cell.cached]
    expected = {
        "total_cells": len(cells),
        "cache_hits": len(cells) - len(solved),
        "cache_misses": len(solved),
        "solver_iterations": sum(cell.iterations for cell in solved),
        "fft_transforms": sum(cell.transforms for cell in solved),
        "unconverged_cells": sum(not cell.converged for cell in cells),
        "batched_tasks": sum(cell.batch_width > 1 for cell in solved),
        "fallback_solo": sum(cell.batch_width <= 1 for cell in solved),
    }
    for name, value in expected.items():
        assert getattr(telemetry, name) == value, name
    # Float totals accumulate in record order.
    seconds = fft_seconds = boundary_seconds = 0.0
    for cell in cells:
        seconds += cell.seconds
        if not cell.cached:
            fft_seconds += cell.fft_seconds
            boundary_seconds += cell.boundary_seconds
    assert telemetry.solve_seconds == seconds
    assert telemetry.fft_seconds == fft_seconds
    assert telemetry.boundary_seconds == boundary_seconds
    shapes = Counter(cell.batch_width for cell in solved if cell.batch_width > 1)
    assert telemetry.batch_shapes() == dict(sorted(shapes.items()))
    assert list(telemetry.batch_shapes()) == [2, 4, 8]
    assert telemetry.summary() == {
        "cells": float(len(cells)),
        "cache_hits": float(expected["cache_hits"]),
        "cache_misses": float(len(solved)),
        "solver_iterations": float(expected["solver_iterations"]),
        "unconverged_cells": float(expected["unconverged_cells"]),
        "solve_seconds": seconds,
        "fft_transforms": float(expected["fft_transforms"]),
        "fft_seconds": fft_seconds,
        "boundary_seconds": boundary_seconds,
        "batched_tasks": float(expected["batched_tasks"]),
        "fallback_solo": float(expected["fallback_solo"]),
    }

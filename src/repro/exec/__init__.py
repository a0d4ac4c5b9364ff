"""Sweep execution engine: declarative tasks, backends, cache, telemetry.

Every paper figure is a grid of independent loss-rate solves.  This
package turns those grids into data (:class:`SolveTask` /
:class:`SweepPlan`), executes them through pluggable backends
(:class:`SerialBackend`, :class:`ProcessPoolBackend`), memoizes results
in a persistent content-addressed :class:`SolveCache`, and reports
per-cell :class:`CellTelemetry` through :class:`SweepTelemetry`.

The serial backend reproduces the legacy hand-rolled sweep loops bit for
bit; the process-pool backend produces identical numbers in parallel.
Cache misses are planned into kernel-stackable batches
(:func:`plan_batches`), and every batch — a batch of one included — goes
through :func:`solve_task_batch`, so shape-compatible cells advance
through one stacked spectral call without changing any cell's bits.
"""

from repro.exec.backends import ProcessPoolBackend, SerialBackend, resolve_backend
from repro.exec.cache import SolveCache, default_cache_dir
from repro.exec.engine import SweepEngine
from repro.exec.planner import DEFAULT_MAX_BATCH, plan_batches
from repro.exec.task import SolveTask, SweepPlan, solve_task_batch
from repro.exec.telemetry import CellTelemetry, ProgressCallback, SweepTelemetry

__all__ = [
    "SolveTask",
    "SweepPlan",
    "solve_task_batch",
    "plan_batches",
    "DEFAULT_MAX_BATCH",
    "SerialBackend",
    "ProcessPoolBackend",
    "resolve_backend",
    "SolveCache",
    "default_cache_dir",
    "SweepEngine",
    "CellTelemetry",
    "SweepTelemetry",
    "ProgressCallback",
]

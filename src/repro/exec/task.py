"""Declarative solve tasks and sweep plans.

A :class:`SolveTask` freezes everything one loss-rate computation needs —
the source, the queue coordinates and the solver configuration — so the
execution engine can treat every grid cell uniformly: hash it for the
persistent cache, ship it to a worker process, or stack it with
compatible tasks in one :func:`solve_task_batch` call.

A :class:`SweepPlan` is a 2-D grid of such tasks in row-major order plus
the axis labels/values the result surface carries.  Sweep builders hoist
shared per-row/per-column work (``with_cutoff``, superposed marginals,
...) exactly as the original hand-rolled loops did, so the serial engine
reproduces the legacy outputs bit for bit.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.core.fingerprint import payload_of, stable_hash
from repro.core.results import LossRateResult
from repro.core.solver import FluidQueue, SolverConfig, batch_loss_rates, solve_loss_rate
from repro.core.source import CutoffFluidSource
from repro.core.validation import check_nonnegative, check_positive

__all__ = ["SolveTask", "SweepPlan", "solve_task_batch"]


@dataclass(frozen=True)
class SolveTask:
    """One loss-rate computation in the paper's sweep coordinates.

    Attributes
    ----------
    source:
        The cutoff fluid source feeding the queue.
    utilization:
        Offered load ``mean_rate / c``.
    normalized_buffer:
        Buffer size in seconds of service (``B / c``).
    config:
        Solver configuration; ``None`` means the default
        :class:`~repro.core.solver.SolverConfig` (and hashes identically
        to it).
    """

    source: CutoffFluidSource
    utilization: float
    normalized_buffer: float
    config: SolverConfig | None = None

    def __post_init__(self) -> None:
        # The queue's own checks, made where the task is built rather than
        # inside whichever batch later solves it.
        check_positive("utilization", self.utilization)
        check_nonnegative("normalized_buffer", self.normalized_buffer)

    def run(self) -> LossRateResult:
        """Solve this task inline (the same call the legacy loops made)."""
        return solve_loss_rate(
            self.source, self.utilization, self.normalized_buffer, config=self.config
        )

    def payload(self) -> dict:
        """Canonical JSON-able description (the cache-key material)."""
        return {
            "kind": "solve_task",
            "source": payload_of(self.source),
            "utilization": float(self.utilization).hex(),
            "normalized_buffer": float(self.normalized_buffer).hex(),
            "config": payload_of(self.config),
        }

    def cache_key(self) -> str:
        """Content hash identifying this task across processes and runs."""
        return stable_hash(self.payload())

    def group_key(self) -> dict:
        """Batch-compatibility material: which tasks may share one kernel stack.

        Tasks whose group keys hash equal start at the same quantization
        level with the same FFT policy (the solver configuration fixes
        ``initial_bins``, the threshold and the padding rule), so the
        batched kernel can advance them in lockstep.  Every key here is a
        subset of the :meth:`payload` keys — enforced by lintkit rule
        FPR001 — so a new grouping dimension can never escape the cache
        fingerprint and silently alias stale entries.
        """
        return {
            "kind": "solve_batch_group",
            "config": payload_of(self.config),
        }

    def batch_key(self) -> str:
        """Content hash of :meth:`group_key` (the batch planner's bucket)."""
        return stable_hash(self.group_key())


@dataclass(frozen=True)
class SweepPlan:
    """A 2-D grid of :class:`SolveTask` cells with labeled axes.

    ``tasks`` is row-major: cell ``(i, j)`` lives at ``i * cols.size + j``.
    """

    row_label: str
    col_label: str
    rows: np.ndarray
    cols: np.ndarray
    tasks: tuple[SolveTask, ...]
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        rows = np.asarray(self.rows, dtype=np.float64)
        cols = np.asarray(self.cols, dtype=np.float64)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "tasks", tuple(self.tasks))
        if len(self.tasks) != rows.size * cols.size:
            raise ValueError(
                f"plan has {len(self.tasks)} tasks for a "
                f"{rows.size} x {cols.size} grid"
            )

    @property
    def shape(self) -> tuple[int, int]:
        """Grid shape ``(rows, cols)``."""
        return (int(self.rows.size), int(self.cols.size))

    def reshape(self, values: Sequence[float]) -> np.ndarray:
        """Arrange per-task values (task order) as the ``(rows, cols)`` grid."""
        return np.asarray(list(values), dtype=np.float64).reshape(self.shape)


def solve_task_batch(tasks: Sequence[SolveTask]) -> list[LossRateResult]:
    """Solve a group-compatible batch through the stacked kernel, in order.

    Every engine solve runs here, a batch of one included.  All tasks
    must share one :meth:`SolveTask.group_key` hash (the batch planner
    guarantees this; direct callers get a ``ValueError`` otherwise).  The
    solver's results do not depend on batch width or order, so a task
    solved in a batch equals the same task solved by :meth:`SolveTask.run`.
    """
    if not tasks:
        return []
    if len({task.batch_key() for task in tasks}) > 1:
        raise ValueError(
            "solve_task_batch needs group-compatible tasks; "
            "partition with repro.exec.planner.plan_batches first"
        )
    queues = [
        FluidQueue.from_normalized(
            source=task.source,
            utilization=task.utilization,
            normalized_buffer=task.normalized_buffer,
        )
        for task in tasks
    ]
    return batch_loss_rates(queues, config=tasks[0].config)
